package dcindex

import (
	"bytes"
	"testing"
)

// FuzzReadKeys feeds arbitrary bytes to the snapshot reader. The contract
// under fuzzing: ReadKeys never panics, and it either errors or returns n
// keys whose WriteKeys encoding is exactly the input's first 16 + 4·n
// bytes — so whatever it accepts is a sorted key set it would write back
// byte for byte, and a count the bytes cannot back is an error, not a
// shorter key set. The seeds (testdata/fuzz/FuzzReadKeys) are a valid
// snapshot, a short header, a count above 2^32, unsorted keys and a count
// larger than the bytes.
func FuzzReadKeys(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		keys, err := ReadKeys(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteKeys(&buf, keys); err != nil {
			t.Fatalf("ReadKeys returned %d keys WriteKeys refuses: %v", len(keys), err)
		}
		if n := 16 + 4*len(keys); n > len(data) || !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatalf("ReadKeys returned %d keys whose encoding is not the input's first %d bytes", len(keys), n)
		}
	})
}
