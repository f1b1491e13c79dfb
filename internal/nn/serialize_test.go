package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"head/internal/tensor"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := NewMLP("m", []int{3, 8, 2}, rng)
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := NewMLP("m", []int{3, 8, 2}, rand.New(rand.NewSource(99)))
	if err := Load(&buf, dst); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, 3)
	x.RandUniform(rng, 1)
	if !tensor.Equal(src.Forward(x), dst.Forward(x), 1e-15) {
		t.Error("loaded model disagrees with saved model")
	}
}

func TestLoadRejectsArchitectureMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := NewMLP("m", []int{3, 8, 2}, rng)
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	// Different shape.
	wrongShape := NewMLP("m", []int{3, 4, 2}, rng)
	if err := Load(bytes.NewReader(buf.Bytes()), wrongShape); err == nil {
		t.Error("expected shape mismatch error")
	}
	// Different names.
	wrongName := NewMLP("x", []int{3, 8, 2}, rng)
	if err := Load(bytes.NewReader(buf.Bytes()), wrongName); err == nil {
		t.Error("expected name mismatch error")
	}
	// Different parameter count.
	wrongCount := NewMLP("m", []int{3, 8, 8, 2}, rng)
	if err := Load(bytes.NewReader(buf.Bytes()), wrongCount); err == nil {
		t.Error("expected count mismatch error")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP("m", []int{2, 2}, rng)
	if err := Load(bytes.NewReader([]byte("not a gob stream")), m); err == nil {
		t.Error("expected decode error")
	}
}

func TestSaveLoadLSTMAndGAT(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	lstm := NewLSTM("l", 3, 5, rng)
	gat := NewGAT("g", 4, 6, 3, rng)
	both := moduleList{lstm, gat}
	var buf bytes.Buffer
	if err := Save(&buf, both); err != nil {
		t.Fatal(err)
	}
	lstm2 := NewLSTM("l", 3, 5, rand.New(rand.NewSource(5)))
	gat2 := NewGAT("g", 4, 6, 3, rand.New(rand.NewSource(6)))
	if err := Load(&buf, moduleList{lstm2, gat2}); err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(lstm.Wx.W, lstm2.Wx.W, 0) || !tensor.Equal(gat.Phi2.W, gat2.Phi2.W, 0) {
		t.Error("weights not restored")
	}
}

// paramList is a Module over a literal parameter list, for checkpoints
// whose parameters differ only where a test needs them to.
type paramList []*Param

func (pl paramList) Params() []*Param { return pl }

// paramBits snapshots every parameter value of m bit for bit.
func paramBits(m Module) []uint64 {
	var bits []uint64
	for _, p := range m.Params() {
		for _, v := range p.W.Data {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits
}

// expectRefusedUnchanged loads data into m, requiring an error and an
// untouched module.
func expectRefusedUnchanged(t *testing.T, what string, data []byte, m Module) {
	t.Helper()
	before := paramBits(m)
	if err := Load(bytes.NewReader(data), m); err == nil {
		t.Fatalf("%s: Load accepted the checkpoint", what)
	}
	after := paramBits(m)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("%s: refused Load changed parameter element %d", what, i)
		}
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := NewMLP("m", []int{3, 8, 2}, rng)
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	dst := NewMLP("m", []int{3, 8, 2}, rand.New(rand.NewSource(8)))
	for _, n := range []int{0, 1, len(data) / 2, len(data) - 1} {
		expectRefusedUnchanged(t, "truncated", data[:n], dst)
	}
}

func TestLoadRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		src := NewMLP("m", []int{3, 8, 2}, rand.New(rand.NewSource(9)))
		last := src.Params()[len(src.Params())-1]
		last.W.Data[len(last.W.Data)-1] = bad
		var buf bytes.Buffer
		if err := Save(&buf, src); err != nil {
			t.Fatal(err)
		}
		dst := NewMLP("m", []int{3, 8, 2}, rand.New(rand.NewSource(10)))
		expectRefusedUnchanged(t, "non-finite weight", buf.Bytes(), dst)
	}
}

// TestLoadMismatchLastLeavesModuleUnchanged: a checkpoint that matches
// every parameter but the last must not overwrite the ones before it.
func TestLoadMismatchLastLeavesModuleUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := paramList{NewParam("a", 2, 3), NewParam("b", 3, 3), NewParam("c", 1, 3)}
	for _, p := range src {
		p.W.RandUniform(rng, 1)
	}
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	for name, dst := range map[string]paramList{
		"shape": {NewParam("a", 2, 3), NewParam("b", 3, 3), NewParam("c", 1, 4)},
		"name":  {NewParam("a", 2, 3), NewParam("b", 3, 3), NewParam("d", 1, 3)},
	} {
		expectRefusedUnchanged(t, "last-parameter "+name+" mismatch", buf.Bytes(), dst)
	}
}
