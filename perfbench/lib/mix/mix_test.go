package mix

import (
	"reflect"
	"testing"
)

func TestSequenceKeepsSharesAndSeed(t *testing.T) {
	targets := HotTargets(1, 1000, 32)
	a := Sequence(1, 0, 10, 1000, targets)
	if !reflect.DeepEqual(a, Sequence(1, 0, 10, 1000, targets)) {
		t.Fatal("same seed, different sequence")
	}
	if reflect.DeepEqual(a, Sequence(2, 0, 10, 1000, targets)) {
		t.Fatal("different seeds, same sequence")
	}
	want := map[Shape]int{}
	for _, s := range Block {
		want[s]++
	}
	for b := 0; b < 10; b++ {
		got := map[Shape]int{}
		for _, q := range a[b*len(Block) : (b+1)*len(Block)] {
			got[q.Shape]++
			if q.Attacker == q.Target && q.Shape != Vulnerability {
				t.Fatalf("query attacks its own target: %+v", q)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("block %d shares %v, want %v", b, got, want)
		}
	}
}
