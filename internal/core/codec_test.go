package core

import (
	"errors"
	"testing"
	"time"

	"strata/internal/otimage"
)

func sampleImage() *otimage.Image {
	im := otimage.New(8, 6, 0.125)
	for i := range im.Pix {
		im.Pix[i] = uint16(i * 331)
	}
	return im
}

func TestCodecRoundTrip(t *testing.T) {
	in := EventTuple{
		TS:          time.UnixMicro(1234567890),
		Job:         "job-42",
		Layer:       17,
		Specimen:    "spec-3",
		Portion:     "cell-5-9",
		AvailableAt: time.UnixMicro(1234567999),
		KV: map[string]any{
			"str":   "hello",
			"bool":  true,
			"int":   int64(-9),
			"float": 3.25,
			"bytes": []byte{1, 2, 3},
			"img":   sampleImage(),
		},
	}
	data, err := EncodeTuple(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeTuple(data)
	if err != nil {
		t.Fatal(err)
	}
	if !out.TS.Equal(in.TS) || !out.AvailableAt.Equal(in.AvailableAt) {
		t.Fatalf("times: %v %v", out.TS, out.AvailableAt)
	}
	if out.Job != in.Job || out.Layer != in.Layer || out.Specimen != in.Specimen || out.Portion != in.Portion {
		t.Fatalf("metadata mismatch: %+v", out)
	}
	if v, _ := out.GetString("str"); v != "hello" {
		t.Errorf("str = %q", v)
	}
	if v, _ := out.GetBool("bool"); !v {
		t.Error("bool lost")
	}
	if v, _ := out.GetInt("int"); v != -9 {
		t.Errorf("int = %d", v)
	}
	if v, _ := out.GetFloat("float"); v != 3.25 {
		t.Errorf("float = %g", v)
	}
	if v, _ := out.GetBytes("bytes"); len(v) != 3 || v[2] != 3 {
		t.Errorf("bytes = %v", v)
	}
	img, ok := out.GetImage("img")
	if !ok || img.Width != 8 || img.Height != 6 || img.Pix[5] != sampleImage().Pix[5] {
		t.Error("image lost in codec")
	}
}

func TestCodecIntsNormalizeToInt64(t *testing.T) {
	in := EventTuple{TS: time.UnixMicro(1), Job: "j", KV: map[string]any{"n": 7}}
	data, err := EncodeTuple(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeTuple(data)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := out.GetInt("n"); !ok || v != 7 {
		t.Fatalf("int payload = %v", out.KV["n"])
	}
}

func TestCodecUnsupportedValue(t *testing.T) {
	_, err := EncodeTuple(EventTuple{TS: time.UnixMicro(1), KV: map[string]any{"bad": struct{}{}}})
	if !errors.Is(err, ErrUnsupportedValue) {
		t.Fatalf("err = %v, want ErrUnsupportedValue", err)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	good, err := EncodeTuple(EventTuple{TS: time.UnixMicro(1), Job: "j", KV: map[string]any{"k": "v"}})
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{
		nil,
		{1, 2, 3},
		good[:len(good)-2],                // truncated
		append([]byte{0xFF}, good[1:]...), // bad magic
	}
	for i, data := range cases {
		if _, err := DecodeTuple(data); err == nil {
			t.Errorf("case %d: DecodeTuple accepted garbage", i)
		}
	}
}

func TestTupleHelpers(t *testing.T) {
	base := EventTuple{TS: time.UnixMicro(5), Job: "j", Layer: 2, KV: map[string]any{"a": int64(1)}}
	mod := base.WithKV("b", "x")
	if _, ok := base.KV["b"]; ok {
		t.Fatal("WithKV mutated the original map")
	}
	if v, _ := mod.GetString("b"); v != "x" {
		t.Fatal("WithKV lost the new value")
	}
	if v, _ := mod.GetInt("a"); v != 1 {
		t.Fatal("WithKV lost the old value")
	}
	if _, ok := base.GetFloat("a"); ok {
		t.Fatal("GetFloat on int should report !ok")
	}
	if s := mod.String(); s == "" {
		t.Fatal("String() empty")
	}
	m := newMarker(&base, "sp")
	if !m.isMarker() || m.Job != "j" || m.Layer != 2 || m.Specimen != "sp" {
		t.Fatalf("marker = %+v", m)
	}
	if base.isMarker() {
		t.Fatal("data tuple misidentified as marker")
	}
}
