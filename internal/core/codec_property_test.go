package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"strata/internal/testseed"
)

// TestCodecPropertyRoundTrip drives EncodeTuple/DecodeTuple with random
// tuples over every supported value type and checks exact reconstruction.
func TestCodecPropertyRoundTrip(t *testing.T) {
	prop := func(seed int64, nKV uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		randString := func(n int) string {
			b := make([]byte, n)
			for i := range b {
				b[i] = byte('a' + rng.Intn(26))
			}
			return string(b)
		}
		in := EventTuple{
			TS:          time.UnixMicro(rng.Int63n(1 << 50)),
			Job:         randString(rng.Intn(20)),
			Layer:       rng.Intn(1000),
			Specimen:    randString(rng.Intn(10)),
			Portion:     randString(rng.Intn(10)),
			AvailableAt: time.UnixMicro(rng.Int63n(1<<50) + 1),
		}
		n := int(nKV % 8)
		if n > 0 {
			in.KV = make(map[string]any, n)
		}
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("k%d", i)
			switch rng.Intn(5) {
			case 0:
				in.KV[key] = randString(rng.Intn(30))
			case 1:
				in.KV[key] = rng.Intn(2) == 0
			case 2:
				in.KV[key] = rng.Int63() - (1 << 62)
			case 3:
				in.KV[key] = rng.NormFloat64()
			case 4:
				b := make([]byte, rng.Intn(50))
				rng.Read(b)
				in.KV[key] = b
			}
		}
		data, err := EncodeTuple(in)
		if err != nil {
			return false
		}
		out, err := DecodeTuple(data)
		if err != nil {
			return false
		}
		if !out.TS.Equal(in.TS) || !out.AvailableAt.Equal(in.AvailableAt) {
			return false
		}
		if out.Job != in.Job || out.Layer != in.Layer || out.Specimen != in.Specimen || out.Portion != in.Portion {
			return false
		}
		if len(out.KV) != len(in.KV) {
			return false
		}
		for k, v := range in.KV {
			if !reflect.DeepEqual(out.KV[k], v) {
				// []byte of length 0 decodes as empty non-nil slice;
				// accept that equivalence.
				bIn, okIn := v.([]byte)
				bOut, okOut := out.KV[k].([]byte)
				if okIn && okOut && len(bIn) == 0 && len(bOut) == 0 {
					continue
				}
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, testseed.Quick(t, 150)); err != nil {
		t.Fatal(err)
	}
}

// TestCodecPropertyDecodeNeverPanics fuzzes DecodeTuple with mutated valid
// encodings: it may error, but must not panic or hang.
func TestCodecPropertyDecodeNeverPanics(t *testing.T) {
	base, err := EncodeTuple(EventTuple{
		TS:  time.UnixMicro(7),
		Job: "job", Layer: 3, Specimen: "s", Portion: "p",
		KV: map[string]any{"a": "x", "b": int64(9), "c": []byte{1, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64, cut uint8, flips uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		data := append([]byte(nil), base...)
		// Truncate somewhere and flip a few bytes.
		if int(cut) < len(data) {
			data = data[:cut]
		}
		for i := 0; i < int(flips%5) && len(data) > 0; i++ {
			data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
		}
		_, _ = DecodeTuple(data) // must simply not panic
		return true
	}
	if err := quick.Check(prop, testseed.Quick(t, 300)); err != nil {
		t.Fatal(err)
	}
}
