package core

import (
	"fmt"
	"testing"

	"repro/internal/index"
)

// FuzzParseManifest holds the MANIFEST parser to hostile bytes at rest: it
// refuses what it does not accept with an error, never panics, and what it
// accepts has a partition count in range and reads back the same from the
// manifest the store would write for it. The seeds (and
// testdata/fuzz/FuzzParseManifest) are a current manifest, a v1 one,
// truncations, and counts out of range.
func FuzzParseManifest(f *testing.F) {
	for _, s := range []string{
		fmt.Sprintf("dcstore v%d\nepoch 3\nparts 8\n", index.StoreFormat),
		"dcstore v1\nepoch 1\nparts 2\n",
		"dcstore v2\nepoch 1\n",
		"dcstore v2\nepoch 1\nparts 0\n",
		"dcstore v2\nepoch 18446744073709551615\nparts 1048577\n",
		"",
		"\n\n\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		epoch, parts, err := parseManifest(data)
		if err != nil {
			return
		}
		if parts <= 0 || parts > 1<<20 {
			t.Fatalf("accepted %d partitions", parts)
		}
		again := fmt.Sprintf("dcstore v%d\nepoch %d\nparts %d\n", index.StoreFormat, epoch, parts)
		if e, p, err := parseManifest([]byte(again)); err != nil || e != epoch || p != parts {
			t.Fatalf("accepted epoch %d, %d parts; its manifest reads back %d, %d, %v", epoch, parts, e, p, err)
		}
	})
}
