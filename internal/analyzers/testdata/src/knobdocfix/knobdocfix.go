// Package knobdocfix exercises the knobdoc analyzer against KNOBS.md.
package knobdocfix

// Options is fully documented.
//
//dc:knobs KNOBS.md
type Options struct {
	// Workers is documented in the table.
	Workers int
	// BatchKeys is documented dotted (Tuning.BatchKeys), which the
	// word-boundary match accepts.
	BatchKeys int
	// missing never appears in KNOBS.md but is unexported, so exempt.
	missing int
}

// Tuning has an undocumented knob.
//
//dc:knobs KNOBS.md
type Tuning struct {
	Depth    int
	Ghost    int // want `knob Tuning\.Ghost is not documented in KNOBS\.md`
	Workersz int // want `knob Tuning\.Workersz is not documented in KNOBS\.md`
}

// NotAStruct cannot carry the directive.
//
//dc:knobs KNOBS.md
type NotAStruct int // want `//dc:knobs applies to struct types only`

// Bad points at a file that does not exist.
//
//dc:knobs MISSING.md
type Bad struct { // want `//dc:knobs doc file MISSING\.md is unreadable`
	Depth int
}

// NoArg forgets the path.
//
//dc:knobs
type NoArg struct { // want `//dc:knobs needs a doc-file path argument`
	Depth int
}
