package lmu

import (
	"reflect"
	"testing"
)

// FuzzUnpack feeds arbitrary bytes to Unpack, as a peer's packed unit would
// arrive. Any input must give an error or a unit, never a panic, and a unit
// that unpacks must survive a Pack/Unpack round trip unchanged.
func FuzzUnpack(f *testing.F) {
	signed := sampleUnit()
	signed.Sig = &Signature{Signer: "acme", Mode: SigFull, Sig: []byte{1, 2, 3}}
	bare := &Unit{Manifest: Manifest{Name: "x", Kind: KindData}}
	for _, u := range []*Unit{sampleUnit(), signed, bare} {
		packed := u.Pack()
		f.Add(packed)
		f.Add(packed[:len(packed)-1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := Unpack(append([]byte(nil), data...))
		if err != nil {
			return
		}
		again, err := Unpack(u.Pack())
		if err != nil {
			t.Fatalf("re-unpacking a decoded unit: %v", err)
		}
		if !reflect.DeepEqual(u, again) {
			t.Fatalf("round trip changed the unit:\n%+v\n%+v", u, again)
		}
	})
}
