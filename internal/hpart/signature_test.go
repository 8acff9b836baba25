package hpart

import (
	"testing"

	"ping/internal/dfs"
	"ping/internal/rdf"
)

// TestSignaturePinned pins the content signature of fixed partitioned
// graphs. Durable cursor tokens carry the signature, so a change to how
// it is computed would make every outstanding token fail to resume; this
// test fails first. A reloaded store must hash the same as the layout
// that wrote it.
func TestSignaturePinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *rdf.Graph
		want uint64
	}{
		{"running-example", uniprotExample(), 0x819447edf0d9049},
		{"random-7-100-4", randomGraph(7, 100, 4), 0xde280069264a9161},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := dfs.New(dfs.Config{})
			lay, err := Partition(tc.g, Options{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			if got := lay.Signature(); got != tc.want {
				t.Errorf("Signature() = %#x, want %#x", got, tc.want)
			}
			loaded, err := Load(fs, tc.g.Dict)
			if err != nil {
				t.Fatal(err)
			}
			if got := loaded.Signature(); got != tc.want {
				t.Errorf("reloaded Signature() = %#x, want %#x", got, tc.want)
			}
		})
	}
}

// TestSignaturePinnedAfterMaintenance pins the signature of a published
// epoch whose sub-partitions carry nonzero file generations, the state
// every cursor issued by a serving pingd after a write records.
func TestSignaturePinnedAfterMaintenance(t *testing.T) {
	g := uniprotExample()
	lay, err := Partition(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(lay)
	m, err := NewStoreMaintainer(store)
	if err != nil {
		t.Fatal(err)
	}
	add := []rdf.Triple{{
		S: g.Dict.LookupIRI("P26474"),
		P: g.Dict.LookupIRI("reference"),
		O: g.Dict.EncodeIRI("Article1"),
	}}
	if err := m.Apply(add, nil); err != nil {
		t.Fatal(err)
	}
	const want = 0x1a3afc7ae42cb30b
	if got := store.Current().Signature(); got != want {
		t.Errorf("Signature() = %#x, want %#x", got, want)
	}
}
