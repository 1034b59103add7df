package main

import (
	"slices"
	"testing"
)

func TestGenOpsIsAFunctionOfTheSeed(t *testing.T) {
	a, b := genOps(7, 400), genOps(7, 400)
	if !slices.Equal(a, b) {
		t.Fatalf("seed 7 gave two different sequences")
	}
	if c := genOps(8, 400); slices.Equal(a, c) {
		t.Fatalf("seeds 7 and 8 gave the same sequence")
	}
}

func TestGenOpsMix(t *testing.T) {
	ops := genOps(3, 4*blockRounds*10)
	for b := 0; b < len(ops); b += 4 * blockRounds {
		var n, large [nParadigms]int
		for _, o := range ops[b : b+4*blockRounds] {
			n[o.p]++
			if o.large {
				large[o.p]++
				if o.unit < poolSize-largeUnits {
					t.Errorf("large op on small unit %d", o.unit)
				}
			} else if o.unit >= poolSize-largeUnits {
				t.Errorf("small op on large unit %d", o.unit)
			}
		}
		for p := range n {
			if n[p] != blockRounds || large[p] != 1 {
				t.Errorf("block %d: %s has %d ops, %d large; want %d and 1",
					b/(4*blockRounds), paradigmNames[p], n[p], large[p], blockRounds)
			}
		}
	}
}

func TestKernelInputsCheckThemselves(t *testing.T) {
	in, err := newKernelInputs(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < poolSize; i++ {
		if in.components[i].Manifest.Name == in.components[(i+1)%poolSize].Manifest.Name ||
			slices.Equal(in.components[i].Code, in.components[(i+1)%poolSize].Code) {
			t.Fatalf("units %d and %d are not distinct", i, (i+1)%poolSize)
		}
	}
	for i, o := range in.ops {
		if o.p == rev && in.revWant[i] == 0 {
			t.Errorf("op %d: no expected REV result", i)
		}
	}
}
