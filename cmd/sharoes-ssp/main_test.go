package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/ssp"
)

func TestSplitAddrs(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{":7070", []string{":7070"}},
		{":7070,:7071,:7072", []string{":7070", ":7071", ":7072"}},
		{" :7070 , :7071 ", []string{":7070", ":7071"}},
		{":7070,,:7071,", []string{":7070", ":7071"}},
		{"", nil},
		{" , ,", nil},
	}
	for _, c := range cases {
		if got := splitAddrs(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("splitAddrs(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseFaults(t *testing.T) {
	cases := []struct {
		spec   string
		shards int
		want   [][]ssp.FaultRule
	}{
		{"", 2, [][]ssp.FaultRule{nil, nil}},
		{"0:writeerr", 1, [][]ssp.FaultRule{{{Mode: ssp.FaultWriteErr}}}},
		{"1:slow:5ms", 2, [][]ssp.FaultRule{nil, {{Mode: ssp.FaultSlow, Delay: 5 * time.Millisecond}}}},
		{"0:drop", 1, [][]ssp.FaultRule{{{Mode: ssp.FaultConnDrop}}}},
		{"0:flap", 1, [][]ssp.FaultRule{{{Mode: ssp.FaultFlap}}}},
		{"0:flap:25", 1, [][]ssp.FaultRule{{{Mode: ssp.FaultFlap, Every: 25}}}},
		{
			" 0:writeerr , 2:flap:3,0:slow:1s", 3,
			[][]ssp.FaultRule{
				{{Mode: ssp.FaultWriteErr}, {Mode: ssp.FaultSlow, Delay: time.Second}},
				nil,
				{{Mode: ssp.FaultFlap, Every: 3}},
			},
		},
	}
	for _, c := range cases {
		got, err := parseFaults(c.spec, c.shards)
		if err != nil {
			t.Errorf("parseFaults(%q, %d): %v", c.spec, c.shards, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseFaults(%q, %d) = %+v, want %+v", c.spec, c.shards, got, c.want)
		}
	}
}

func TestParseFaultsRejects(t *testing.T) {
	cases := []struct {
		spec, why string
	}{
		{"0", "want idx:mode"},
		{"writeerr", "want idx:mode"},
		{"0:writeerr,", "want idx:mode"},        // empty trailing entry
		{"0:writeerr,,1:drop", "want idx:mode"}, // empty middle entry
		{"2:writeerr", "shard index"},           // one past the last shard
		{"-1:writeerr", "shard index"},
		{"x:writeerr", "shard index"},
		{"0:slow", "slow delay"},
		{"0:slow:fast", "slow delay"},
		{"0:flap:0", "flap period"},
		{"0:flap:-3", "flap period"},
		{"0:flap:often", "flap period"},
		{"0:tamper", "unknown fault mode"},
	}
	for _, c := range cases {
		got, err := parseFaults(c.spec, 2)
		if err == nil {
			t.Errorf("parseFaults(%q) = %+v, want an error", c.spec, got)
			continue
		}
		if !strings.Contains(err.Error(), c.why) {
			t.Errorf("parseFaults(%q) error %q does not mention %q", c.spec, err, c.why)
		}
	}
}
