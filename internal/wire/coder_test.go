package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"github.com/xft-consensus/xft/internal/smr"
)

// leaf, branch and tree are a wire type in miniature: every kind of
// field, a nested counted slice and an optional part. visits counts
// calls of leaf's field list.
type leaf struct {
	ID   smr.NodeID
	Data []byte
}

type branch struct {
	SN     smr.SeqNum
	Leaves []leaf
}

type tree struct {
	Kind     uint8
	On       bool
	Root     [4]byte
	Name     string
	Branches []branch
	Extra    *leaf
}

var visits int

const (
	leafMin   = 8 + 4
	branchMin = 8 + 4
)

func (l *leaf) code(c *Coder) {
	visits++
	I64(c, &l.ID)
	Bytes(c, &l.Data)
}

func (b *branch) code(c *Coder) {
	U64(c, &b.SN)
	Slice(c, &b.Leaves, leafMin, (*leaf).code)
}

func (t *tree) code(c *Coder) {
	U8(c, &t.Kind)
	c.Bool(&t.On)
	c.Raw(t.Root[:])
	c.Str(&t.Name)
	Slice(c, &t.Branches, branchMin, (*branch).code)
	Opt(c, &t.Extra, (*leaf).code)
}

func (t *tree) Type() string  { return "tree" }
func (t *tree) WireSize() int { return 64 }

func sampleTree() *tree {
	return &tree{
		Kind: 7, On: true, Root: [4]byte{1, 2, 3, 4}, Name: "oak",
		Branches: []branch{
			{SN: 1, Leaves: []leaf{{ID: -1, Data: []byte("a")}, {ID: 2}}},
			{SN: 2},
		},
		Extra: &leaf{ID: 9, Data: []byte("x")},
	}
}

// TestCoderBothDirections: one field list writes exactly what the Buf
// primitives would, and reads it back to an equal value; an empty byte
// string comes back empty but not nil, as Reader.Bytes returns it (a
// client tells "the reply, which is empty" from "no reply" that way),
// an empty slice comes back nil, an absent optional part stays absent.
func TestCoderBothDirections(t *testing.T) {
	in := sampleTree()
	w := New(64)
	in.code(Encoder(w))
	want := New(64).U8(7).Bool(true).Raw([]byte{1, 2, 3, 4}).Str("oak").
		U32(2).
		U64(1).U32(2).I64(-1).Bytes([]byte("a")).I64(2).Bytes(nil).
		U64(2).U32(0).
		U8(1).I64(9).Bytes([]byte("x")).Done()
	if !bytes.Equal(w.Done(), want) {
		t.Fatalf("encoded\n %x\nwant\n %x", w.Done(), want)
	}
	var out tree
	c := Decoder(w.Done())
	if out.code(c); !c.Done() {
		t.Fatal("decoding a valid encoding failed")
	}
	if got := out.Branches[0].Leaves[1].Data; got == nil || len(got) != 0 {
		t.Fatalf("empty byte string decoded to %#v, want []byte{}", got)
	}
	in.Branches[0].Leaves[1].Data = []byte{}
	if !reflect.DeepEqual(&out, in) {
		t.Fatalf("decoded %+v, want %+v", out, in)
	}

	bare := New(16)
	(&tree{}).code(Encoder(bare))
	var zero tree
	c = Decoder(bare.Done())
	if zero.code(c); !c.Done() || !reflect.DeepEqual(zero, tree{}) {
		t.Fatalf("zero value did not round-trip: %+v", zero)
	}
}

// TestCoderRejects covers what a decoding walk refuses: every proper
// prefix, trailing bytes, and a bool byte other than 0 or 1.
func TestCoderRejects(t *testing.T) {
	w := New(64)
	sampleTree().code(Encoder(w))
	enc := w.Done()
	for cut := 0; cut < len(enc); cut++ {
		c := Decoder(enc[:cut])
		if new(tree).code(c); c.Done() {
			t.Errorf("truncation at %d/%d decoded", cut, len(enc))
		}
	}
	c := Decoder(append(append([]byte(nil), enc...), 0))
	if new(tree).code(c); !c.OK() || c.Done() {
		t.Error("trailing byte: want a clean walk that is not Done")
	}
	bad := append([]byte(nil), enc...)
	bad[1] = 2 // tree.On
	c = Decoder(bad)
	if new(tree).code(c); c.OK() {
		t.Error("bool byte 2 accepted")
	}
}

// TestCoderStopsAtFirstFailure plants a hostile count in a nested
// slice — the first branch claims 2^30 leaves — in front of a second,
// valid branch. The count must fail against the remaining input before
// anything is allocated for it, and from there on the walk must neither
// read (the position stays put, the second branch's leaves are never
// visited) nor allocate.
func TestCoderStopsAtFirstFailure(t *testing.T) {
	head := func() *Buf { return New(64).U8(7).Bool(true).Raw([]byte{1, 2, 3, 4}).Str("").U32(2) }
	hostile := head().U64(1).U32(1 << 30)
	failAt := len(hostile.Done())
	enc := hostile.
		U64(2).U32(1).I64(5).Bytes([]byte("never read")).
		U8(0).Done()

	var out tree
	c := Decoder(enc)
	visits = 0
	out.code(c)
	if c.OK() || c.Done() {
		t.Fatal("hostile nested count accepted")
	}
	if c.r.pos != failAt {
		t.Errorf("walk stopped reading at byte %d, want %d (the end of the hostile count)", c.r.pos, failAt)
	}
	if visits != 0 || out.Branches[0].Leaves != nil || out.Branches[1].SN != 0 || out.Extra != nil {
		t.Errorf("walk went on after the failure: %d leaf visits, %+v", visits, out)
	}
	// The walk allocates what it would for two leafless branches — the
	// outer slice, whose count of 2 the input could hold — and nothing
	// for the hostile count or after it.
	leafless := head().U64(1).U32(0).U64(2).U32(0).U8(0).Done()
	allocs := func(b []byte) float64 {
		return testing.AllocsPerRun(100, func() { new(tree).code(Decoder(b)) })
	}
	if got, want := allocs(enc), allocs(leafless); got != want {
		t.Errorf("failed walk allocates %v times, want %v", got, want)
	}
}

var treeCodec = NewCodec("coder-test", Row(3, (*tree).code))

func TestTagCodec(t *testing.T) {
	if _, ok := Lookup("coder-test"); !ok {
		t.Fatal("NewCodec did not register the codec")
	}
	if got := treeCodec.Tags(); !reflect.DeepEqual(got, map[byte]string{3: "tree"}) {
		t.Fatalf("Tags() = %v", got)
	}
	enc, err := treeCodec.Marshal(sampleTree())
	if err != nil || enc[0] != 3 {
		t.Fatalf("Marshal: %x, %v", enc, err)
	}
	want := sampleTree()
	want.Branches[0].Leaves[1].Data = []byte{}
	m, err := treeCodec.Decode(enc)
	if err != nil || !reflect.DeepEqual(m, want) {
		t.Fatalf("Decode: %+v, %v", m, err)
	}
	for _, bad := range [][]byte{nil, {0xee}, enc[:len(enc)-1], append(append([]byte(nil), enc...), 0)} {
		if _, err := treeCodec.Decode(bad); !errors.Is(err, ErrBadMessage) {
			t.Errorf("Decode(%x) = %v, want ErrBadMessage", bad, err)
		}
	}

	// Outside the table: nil, a foreign type, and a foreign type that
	// borrows a listed Type() by embedding. Append leaves the buffer as
	// it found it.
	type stray struct{ tree }
	w := New(8).U8(0xaa)
	for _, m := range []smr.Message{nil, &regMsg{}, &stray{}} {
		if err := treeCodec.Append(w, m); err == nil {
			t.Errorf("%T encoded", m)
		}
	}
	if !bytes.Equal(w.Done(), []byte{0xaa}) {
		t.Errorf("failed Append left %x in the buffer", w.Done())
	}
}

func TestNewCodecRejectsDuplicates(t *testing.T) {
	for name, table := range map[string][]TagRow{
		"tag":  {Row(1, (*tree).code), Row(1, func(*regMsg, *Coder) {})},
		"type": {Row(1, (*tree).code), Row(2, (*tree).code)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("duplicate %s accepted", name)
				}
			}()
			NewCodec("coder-test-dup-"+name, table...)
		}()
	}
}
