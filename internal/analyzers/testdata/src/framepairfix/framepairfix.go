// Package framepairfix exercises framepair: OpPing is a complete request
// row and OpAck is named as its reply; OpFake is encoded but has no row;
// OpHalf is a request row with no node handler and no reply check;
// OpBare's row never states its version — the half-wired states the
// analyzer exists to catch.
package framepairfix

const (
	OpPing uint8 = 1
	OpAck  uint8 = 2
	OpFake uint8 = 3 // want `OpFake is missing from the //dc:optable op table`
	OpHalf uint8 = 4
	OpBare uint8 = 5
)

type opSpec struct {
	minVer uint32
	reply  uint8
	valid  func(n int) bool
	serve  func() uint8
}

func one(n int) bool   { return n == 1 }
func servePing() uint8 { return OpAck }

// opTable is the op table framepair checks for completeness.
//
//dc:optable
var opTable = [6]opSpec{
	OpPing: {minVer: 1, reply: OpAck, valid: one, serve: servePing},
	OpHalf: {minVer: 1, reply: OpAck}, // want `OpHalf names a reply op but no valid rule: client reply check missing` `OpHalf names a reply op but no serve handler: node dispatch missing`
	OpBare: {},                        // want `OpBare's row states no minVer: the op×version gate cannot place it`
}

func encode(buf []byte, op uint8) []byte { return append(buf, op) }

// encodeFake is the encode site of an op the table never heard of.
func encodeFake(buf []byte) []byte { return encode(buf, OpFake) }
