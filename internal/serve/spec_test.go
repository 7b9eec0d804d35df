package serve

import (
	"strings"
	"testing"
)

func TestNormalizeChaosDefaults(t *testing.T) {
	n, err := Spec{Kind: KindChaos, Seed: 7}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Scale != "quick" {
		t.Fatalf("default scale = %q, want quick", n.Scale)
	}
	if n.MaxEvents != 20_000_000 {
		t.Fatalf("default max_events = %d", n.MaxEvents)
	}
	if !n.chaosDiff() {
		t.Fatal("no-protocol chaos spec must be differential")
	}
	// Normalizing is idempotent: the canonical form re-normalizes to itself.
	n2, err := n.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n != n2 {
		t.Fatalf("normalize not idempotent: %+v vs %+v", n, n2)
	}
}

func TestNormalizeChaosSingleComboFillsKinds(t *testing.T) {
	n, err := Spec{Kind: KindChaos, Seed: 1, Protocol: "stache"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Sched == "" || n.Storage == "" {
		t.Fatalf("single-combo defaults not filled: %+v", n)
	}
	if n.chaosDiff() {
		t.Fatal("protocol-bearing spec must not be differential")
	}
}

func TestHashDistinguishesAndCollapses(t *testing.T) {
	a, err := Spec{Kind: KindChaos, Seed: 3}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	// Explicit defaults normalize to the same canonical spec → same hash.
	b, err := Spec{Kind: KindChaos, Seed: 3, Scale: "quick", MaxEvents: 20_000_000}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("equivalent specs hash differently:\n%s\n%s", a.Canonical(), b.Canonical())
	}
	c, err := Spec{Kind: KindChaos, Seed: 4}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() == c.Hash() {
		t.Fatal("different seeds must hash differently")
	}
	if len(a.Hash()) != 64 {
		t.Fatalf("hash %q is not hex SHA-256", a.Hash())
	}
}

func TestNormalizeRejections(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"missing kind", Spec{}, "missing kind"},
		{"unknown kind", Spec{Kind: "nope"}, "unknown spec kind"},
		{"negative seed", Spec{Kind: KindChaos, Seed: -1}, "negative seed"},
		{"bad scale", Spec{Kind: KindChaos, Scale: "huge"}, "scale"},
		{"diff with sched", Spec{Kind: KindChaos, Sched: "heap"}, "cannot set"},
		{"diff with block size", Spec{Kind: KindChaos, BlockSize: 64}, "cannot set"},
		{"bad block size", Spec{Kind: KindChaos, Protocol: "stache", BlockSize: 48}, "block_size"},
		{"bad protocol", Spec{Kind: KindChaos, Protocol: "mesi"}, "protocol"},
		{"bad net", Spec{Kind: KindChaos, Protocol: "stache", Net: "infiniband"}, "net"},
		{"chaos with experiment", Spec{Kind: KindChaos, Experiment: "figure5"}, "experiment fields"},
		{"unknown experiment", Spec{Kind: KindExperiment, Experiment: "figure99"}, "unknown experiment"},
		{"experiment missing id", Spec{Kind: KindExperiment}, "missing experiment"},
		{"experiment with seed", Spec{Kind: KindExperiment, Experiment: "figure5", Seed: 3}, "chaos fields"},
		{"experiment with protocol", Spec{Kind: KindExperiment, Experiment: "figure5", Protocol: "stache"}, "chaos fields"},
		{"experiment bad scale", Spec{Kind: KindExperiment, Experiment: "figure5", Scale: "long"}, "scale"},
	}
	for _, tc := range cases {
		if _, err := tc.spec.Normalize(); err == nil {
			t.Errorf("%s: Normalize accepted %+v", tc.name, tc.spec)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestExpandSeedRange(t *testing.T) {
	br := BatchRequest{
		SeedRange: &SeedRange{Start: 10, Count: 3},
		Specs:     []Spec{{Kind: KindExperiment, Experiment: "figure5"}},
	}
	specs, err := br.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("expanded %d specs, want 4", len(specs))
	}
	for i, want := range []int64{10, 11, 12} {
		if specs[i].Seed != want || specs[i].Kind != KindChaos {
			t.Fatalf("spec[%d] = %+v, want chaos seed %d", i, specs[i], want)
		}
	}
	if specs[3].Kind != KindExperiment {
		t.Fatalf("range must expand before explicit specs: %+v", specs[3])
	}

	if _, err := (&BatchRequest{}).Expand(0); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := br.Expand(2); err == nil {
		t.Fatal("over-limit batch accepted")
	}
	bad := BatchRequest{Specs: []Spec{{Kind: KindChaos}, {Kind: "nope"}}}
	if _, err := bad.Expand(0); err == nil {
		t.Fatal("batch with an invalid spec accepted")
	}
}
