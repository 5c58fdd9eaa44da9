package ssp

import (
	"testing"

	"github.com/sharoes/sharoes/internal/wire"
)

// TestFaultConnDropOneShot: the rule severs on the first matching
// operation, then disarms — and the operation itself still lands (the
// cut is at the transport, not the store).
func TestFaultConnDropOneShot(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	severs := 0
	fs.OnSever(func() { severs++ })
	fs.AddRule(FaultRule{Mode: FaultConnDrop})

	for i := 0; i < 5; i++ {
		if err := fs.Put(wire.NSData, "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if severs != 1 {
		t.Fatalf("FaultConnDrop severed %d times, want exactly 1", severs)
	}
	if fs.Triggered() != 1 {
		t.Fatalf("Triggered = %d, want 1", fs.Triggered())
	}
	// The write that tripped the rule still executed.
	if v, err := fs.Get(wire.NSData, "k"); err != nil || string(v) != "v" {
		t.Fatalf("Get after drop = %q, %v", v, err)
	}
}

// TestFaultFlapEvery: the rule severs on every Every'th matching
// operation for as long as it stays armed, across both paths.
func TestFaultFlapEvery(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	severs := 0
	fs.OnSever(func() { severs++ })
	fs.AddRule(FaultRule{Mode: FaultFlap, Every: 3})

	// 4 writes + 5 reads = 9 matching ops; hits 3, 6, 9 sever.
	for i := 0; i < 4; i++ {
		if err := fs.Put(wire.NSData, "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := fs.Get(wire.NSData, "k"); err != nil {
			t.Fatal(err)
		}
	}
	if severs != 3 {
		t.Fatalf("FaultFlap(Every=3) severed %d times over 9 ops, want 3", severs)
	}
}

// TestFaultConnNoHook: with no OnSever hook wired the connection fault
// modes are inert — ops pass through untouched.
func TestFaultConnNoHook(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	fs.AddRule(FaultRule{Mode: FaultConnDrop})
	fs.AddRule(FaultRule{Mode: FaultFlap, Every: 1})
	for i := 0; i < 3; i++ {
		if err := fs.Put(wire.NSData, "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if fs.Triggered() != 0 {
		t.Fatalf("Triggered = %d with no sever hook, want 0", fs.Triggered())
	}
}

// TestFaultConnKeyScoped: conn faults respect NS and key-substring
// scoping like every other rule.
func TestFaultConnKeyScoped(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	severs := 0
	fs.OnSever(func() { severs++ })
	fs.AddRule(FaultRule{Mode: FaultConnDrop, NS: wire.NSMeta, KeyPart: "hot"})

	fs.Put(wire.NSData, "hot/1", []byte("v"))  // wrong NS
	fs.Put(wire.NSMeta, "cold/1", []byte("v")) // wrong key
	if severs != 0 {
		t.Fatalf("scoped rule fired on non-matching ops (%d severs)", severs)
	}
	fs.Put(wire.NSMeta, "hot/1", []byte("v"))
	if severs != 1 {
		t.Fatalf("scoped rule severed %d times on its match, want 1", severs)
	}
}
