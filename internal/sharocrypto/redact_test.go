package sharocrypto

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"log/slog"
	"strings"
	"testing"
)

// TestSecretsDoNotPrint: a SymKey, SignKey or PrivateKey prints as the
// fixed redaction under every verb, alone and as an exported field of a
// struct, and logs as it through slog's text and JSON handlers. As an
// unexported field, where fmt reflects into the value instead of calling
// its Format, it prints no byte of the secret either: each type holds
// its secret behind a pointer, so fmt finds an address. Each check looks
// for the secret itself in the output, in the forms fmt would print its
// bytes: decimal, hex and quoted.
func TestSecretsDoNotPrint(t *testing.T) {
	sym := NewSymKey()
	sk, _ := NewSigningPair()
	priv := rsaTestKey(t)
	secrets := []struct {
		name string
		key  any
		raw  []byte
		more []string // other forms of the secret to look for
	}{
		{"SymKey", sym, sym.Marshal(), nil},
		{"SignKey", sk, sk.Marshal(), []string{fmt.Sprint([]byte(sk.expanded()))}},
		{"PrivateKey", priv, priv.Marshal(), []string{priv.key.D.String(), priv.key.D.Text(16)}},
	}
	// A struct holding each secret as an exported field, as meta.KeySet
	// holds a copy's keys.
	type holder struct {
		Name string
		DEK  SymKey
		MSK  SignKey
		Priv PrivateKey
	}
	h := holder{Name: "keys", DEK: sym, MSK: sk, Priv: priv}
	// The same keys as unexported fields, as cap.View holds its table key
	// and the client's ref its MEK: fmt cannot call Format on these.
	type hidden struct {
		name string
		dek  SymKey
		msk  SignKey
		priv PrivateKey
	}
	u := hidden{name: "keys", dek: sym, msk: sk, priv: priv}

	leaks := func(out string) string {
		for _, s := range secrets {
			forms := append([]string{fmt.Sprint(s.raw), hex.EncodeToString(s.raw), fmt.Sprintf("%q", s.raw),
				strings.Trim(fmt.Sprint(s.raw), "[]")}, s.more...)
			for _, f := range forms {
				if strings.Contains(out, f) {
					return s.name
				}
			}
		}
		return ""
	}
	for _, verb := range []string{"%v", "%+v", "%#v", "%s", "%d", "%x", "%q"} {
		for _, s := range secrets {
			if got := fmt.Sprintf(verb, s.key); got != redacted {
				t.Errorf("%s printed with %s = %q, want %q", s.name, verb, got, redacted)
			}
		}
		for _, v := range []any{h, &h} {
			out := fmt.Sprintf(verb, v)
			if who := leaks(out); who != "" {
				t.Errorf("a struct printed with %s shows its %s: %s", verb, who, out)
			}
			if strings.Count(out, redacted) != 3 {
				t.Errorf("a struct printed with %s = %s, want each of its three keys as %q", verb, out, redacted)
			}
		}
		for _, v := range []any{u, &u} {
			if out := fmt.Sprintf(verb, v); leaks(out) != "" {
				t.Errorf("a struct printed with %s shows its unexported %s: %s", verb, leaks(out), out)
			}
		}
	}

	for name, newHandler := range map[string]func(*bytes.Buffer) slog.Handler{
		"text": func(b *bytes.Buffer) slog.Handler { return slog.NewTextHandler(b, nil) },
		"json": func(b *bytes.Buffer) slog.Handler { return slog.NewJSONHandler(b, nil) },
	} {
		var buf bytes.Buffer
		log := slog.New(newHandler(&buf))
		for _, s := range secrets {
			buf.Reset()
			log.Info("key", "k", s.key)
			if !strings.Contains(buf.String(), redacted) || leaks(buf.String()) != "" {
				t.Errorf("slog %s handler logs %s as %s", name, s.name, buf.String())
			}
		}
		buf.Reset()
		log.Info("keys", "holder", h, "ptr", &h, "hidden", u, "hiddenptr", &u)
		if who := leaks(buf.String()); who != "" {
			t.Errorf("slog %s handler logs a struct's %s: %s", name, who, buf.String())
		}
	}
}
