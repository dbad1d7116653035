package policy

import (
	"bytes"
	"testing"
)

// FuzzPolicyParse feeds Parse what POST /policy and -policy accept: JSON or
// XML from outside the process. The seeds (testdata/fuzz/FuzzPolicyParse)
// are the repository's own example documents. A document that parses and
// validates must survive the canonical round trip: it marshals to JSON, and
// that JSON parses, validates and marshals to the same bytes. The JSON is
// compared, not the structs: XMLName, and rules: [] against nil, differ
// harmlessly.
func FuzzPolicyParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		doc, err := Parse(b)
		if err != nil || doc.Validate() != nil {
			return
		}
		first, err := doc.Marshal()
		if err != nil {
			t.Fatalf("valid document does not marshal: %v", err)
		}
		again, err := Parse(first)
		if err != nil {
			t.Fatalf("marshalled document does not parse: %v\n%s", err, first)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("marshalled document does not validate: %v\n%s", err, first)
		}
		second, err := again.Marshal()
		if err != nil {
			t.Fatalf("re-parsed document does not marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip changed the document:\n%s\nbecame\n%s", first, second)
		}
	})
}
