package service

import (
	"bytes"
	"testing"
)

// FuzzParseConfig feeds ParseConfig the application descriptor a user hands
// gates-launcher -config. The seeds (testdata/fuzz/FuzzParseConfig) are the
// repository's own example applications. Nothing may panic: not the XML
// decoder, and not Validate, which ParseConfig runs on whatever decodes; and
// a descriptor ParseConfig accepts is one Validate accepts.
func FuzzParseConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		cfg, err := ParseConfig(bytes.NewReader(b))
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("ParseConfig accepted a descriptor Validate rejects: %v", err)
		}
	})
}
