package main

import (
	"math"
	"testing"
)

func TestParseBytes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"", 0, true},
		{"0", 0, true},
		{"4096", 4096, true},
		{"2K", 2 << 10, true},
		{"2M", 2 << 20, true},
		{"2G", 2 << 30, true},
		{"2KiB", 2 << 10, true},
		{"2MiB", 2 << 20, true},
		{"2GiB", 2 << 30, true},
		{"2KB", 2_000, true},
		{"2MB", 2_000_000, true},
		{"2GB", 2_000_000_000, true},
		{"1mib", 1 << 20, true},
		{"  3 GiB  ", 3 << 30, true},
		{"9223372036854775807", math.MaxInt64, true},
		{"8589934591G", 8589934591 << 30, true},
		{"-1", 0, false},
		{"-2GiB", 0, false},
		{"8589934592G", 0, false},
		{"9000000000GiB", 0, false},
		{"9223372036854775808", 0, false},
		{"lots", 0, false},
		{"12XB", 0, false},
		{"GiB", 0, false},
	} {
		got, err := parseBytes(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("parseBytes(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("parseBytes(%q) = %d, want an error", tc.in, got)
		}
	}
}
