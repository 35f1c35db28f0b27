package amsim

import (
	"context"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"strata/internal/otimage"
)

func testLayout() Layout { return ScaledLayout(400) } // 0.625 mm/px

func TestDefaultLayoutGeometry(t *testing.T) {
	l := DefaultLayout()
	if err := l.Validate(); err != nil {
		t.Fatalf("Validate() error = %v", err)
	}
	if len(l.Specimens) != DefaultSpecimens {
		t.Fatalf("specimens = %d, want %d", len(l.Specimens), DefaultSpecimens)
	}
	if got := l.MMPerPixel(); got != 0.125 {
		t.Fatalf("MMPerPixel = %g, want 0.125", got)
	}
	if got := l.NumLayers(); got != 575 {
		t.Fatalf("NumLayers = %d, want 575 (23 mm / 40 µm)", got)
	}
	if got := l.LayersPerStack(); got != 25 {
		t.Fatalf("LayersPerStack = %d, want 25", got)
	}
	// 23 stacks.
	if got := l.StackOf(l.NumLayers() - 1); got != 22 {
		t.Fatalf("last layer stack = %d, want 22", got)
	}
	// No overlapping specimens.
	mmpp := l.MMPerPixel()
	for i, a := range l.Specimens {
		for _, b := range l.Specimens[i+1:] {
			if !a.RegionPx(mmpp).Intersect(b.RegionPx(mmpp)).Empty() {
				t.Fatalf("specimens %d and %d overlap", a.ID, b.ID)
			}
		}
		if len(a.Cylinders) != 3 {
			t.Fatalf("specimen %d has %d cylinders, want 3", a.ID, len(a.Cylinders))
		}
	}
}

func TestScanOrientationRotatesPerStack(t *testing.T) {
	l := testLayout()
	lps := l.LayersPerStack()
	o0 := l.ScanOrientationDeg(0)
	o1 := l.ScanOrientationDeg(lps)
	if o0 == o1 {
		t.Fatal("orientation must change between stacks")
	}
	// Same within a stack.
	if l.ScanOrientationDeg(1) != o0 {
		t.Fatal("orientation must be constant within a stack")
	}
	// Bounded in [0, 360).
	for layer := 0; layer < l.NumLayers(); layer += lps {
		if o := l.ScanOrientationDeg(layer); o < 0 || o >= 360 {
			t.Fatalf("orientation %g out of range", o)
		}
	}
}

func TestLayoutValidateRejectsBadGeometry(t *testing.T) {
	bad := testLayout()
	bad.Specimens[0].OriginXMM = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative origin should fail validation")
	}
	bad2 := testLayout()
	bad2.LayerMM = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("zero layer thickness should fail validation")
	}
}

func TestProcessModelDeterminism(t *testing.T) {
	m1, err := NewProcessModel(testLayout(), 42)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewProcessModel(testLayout(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(m1.Sites()) != len(m2.Sites()) {
		t.Fatal("same seed produced different site counts")
	}
	im1 := m1.RenderLayer(10)
	im2 := m2.RenderLayer(10)
	for i := range im1.Pix {
		if im1.Pix[i] != im2.Pix[i] {
			t.Fatalf("pixel %d differs between identically seeded renders", i)
		}
	}
	m3, err := NewProcessModel(testLayout(), 43)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	im3 := m3.RenderLayer(10)
	for i := range im1.Pix {
		if im1.Pix[i] != im3.Pix[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical renders")
	}
}

func TestRenderLayerBackgroundAndSpecimens(t *testing.T) {
	m, err := NewProcessModel(testLayout(), 1)
	if err != nil {
		t.Fatal(err)
	}
	im := m.RenderLayer(0)
	// Background (outside all specimens) must be exactly 0.
	if v := im.At(0, 0); v != 0 {
		t.Fatalf("background pixel = %d, want 0", v)
	}
	// Inside a specimen: near baseEmission on average.
	sp := m.Layout().Specimens[0]
	r := sp.RegionPx(im.MMPerPixel)
	mean, ok := im.MaskedMean(r)
	if !ok {
		t.Fatal("specimen region has no printed pixels")
	}
	if mean < baseEmission*0.8 || mean > baseEmission*1.2 {
		t.Fatalf("specimen mean = %g, want near %g", mean, baseEmission)
	}
	// Printed pixels are never exactly 0.
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			if im.At(x, y) == 0 {
				t.Fatalf("printed pixel (%d,%d) is 0", x, y)
			}
		}
	}
}

func TestDefectSitesShiftCellMeans(t *testing.T) {
	m, err := NewProcessModel(testLayout(), 7)
	if err != nil {
		t.Fatal(err)
	}
	sites := m.Sites()
	if len(sites) == 0 {
		t.Fatal("model generated no defect sites")
	}
	// Find a cold site and check the image is darker there.
	var cold *DefectSite
	for i := range sites {
		if !sites[i].Hot && sites[i].RadiusMM > 1.2 {
			cold = &sites[i]
			break
		}
	}
	if cold == nil {
		t.Skip("no large cold site with this seed")
	}
	im := m.RenderLayer(cold.FirstLayer)
	mmpp := im.MMPerPixel
	cx, cy := int(cold.CenterXMM/mmpp), int(cold.CenterYMM/mmpp)
	rpx := int(cold.RadiusMM/mmpp) - 1
	if rpx < 1 {
		rpx = 1
	}
	region := otimage.Rect{X0: cx - rpx, Y0: cy - rpx, X1: cx + rpx, Y1: cy + rpx}
	mean, ok := im.MaskedMean(region)
	if !ok {
		t.Fatal("defect region empty")
	}
	if mean > baseEmission*0.75 {
		t.Fatalf("cold site mean = %g, want well below %g", mean, baseEmission)
	}
	// Outside its layer range the site is gone.
	after := m.RenderLayer(cold.LastLayer + 1)
	meanAfter, ok := after.MaskedMean(region)
	if ok && meanAfter < baseEmission*0.8 {
		// Could be overlapped by another site; tolerate only if one exists.
		overlapped := false
		for _, s := range m.activeSites(cold.LastLayer + 1) {
			dx, dy := s.CenterXMM-cold.CenterXMM, s.CenterYMM-cold.CenterYMM
			if math.Hypot(dx, dy) < s.RadiusMM+cold.RadiusMM {
				overlapped = true
			}
		}
		if !overlapped {
			t.Fatalf("site still cold (%g) after its last layer", meanAfter)
		}
	}
}

func TestGasFlowAlignmentDrivesDefectDensity(t *testing.T) {
	if gasFlowAlignment(0) != 0 {
		t.Fatal("scan along +x should have zero alignment with -y gas flow")
	}
	if a := gasFlowAlignment(90); math.Abs(a-1) > 1e-9 {
		t.Fatalf("perpendicular scan alignment = %g, want 1", a)
	}
}

func TestJobParamsAndRender(t *testing.T) {
	job, err := NewJob("J1", testLayout(), 5)
	if err != nil {
		t.Fatal(err)
	}
	p := job.ParamsForLayer(1)
	if p.JobID != "J1" || p.Layer != 1 || len(p.SpecimenRegions) != 12 {
		t.Fatalf("params = %+v", p)
	}
	if _, err := job.RenderLayer(0); err == nil {
		t.Fatal("layer 0 should be out of range (layers are 1-based)")
	}
	if _, err := job.RenderLayer(job.NumLayers() + 1); err == nil {
		t.Fatal("layer past the end should error")
	}
	im, err := job.RenderLayer(1)
	if err != nil {
		t.Fatal(err)
	}
	if im.Width != 400 {
		t.Fatalf("image width = %d", im.Width)
	}
	if _, err := NewJob("", testLayout(), 1); err == nil {
		t.Fatal("empty job id should error")
	}
}

func TestMachineRunPacingAndCancel(t *testing.T) {
	job, err := NewJob("J2", ScaledLayout(100), 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine("m1", MachineConfig{LayerTime: time.Millisecond, RecoatGap: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var layers []int
	err = m.Run(context.Background(), job, 5, func(ld LayerData) error {
		if ld.JobID != "J2" || ld.Image == nil || ld.Params.Layer != ld.Layer {
			t.Errorf("bad layer data %+v", ld)
		}
		layers = append(layers, ld.Layer)
		return nil
	})
	if err != nil {
		t.Fatalf("Run error = %v", err)
	}
	if len(layers) != 5 || layers[0] != 1 || layers[4] != 5 {
		t.Fatalf("layers = %v", layers)
	}

	// Cancellation stops the run.
	ctx, cancel := context.WithCancel(context.Background())
	count := 0
	err = m.Run(ctx, job, 0, func(ld LayerData) error {
		count++
		if count == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after cancel = %v, want context.Canceled", err)
	}
	if count < 2 || count > 3 {
		t.Fatalf("count = %d", count)
	}

	// Emit error propagates.
	sentinel := errors.New("stop")
	err = m.Run(context.Background(), job, 0, func(LayerData) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run = %v, want sentinel", err)
	}
}

func TestMachineConstructorValidation(t *testing.T) {
	if _, err := NewMachine("", MachineConfig{}); err == nil {
		t.Fatal("empty name should error")
	}
	if _, err := NewMachine("m", MachineConfig{LayerTime: -1}); err == nil {
		t.Fatal("negative layer time should error")
	}
}

func TestDefectSiteLayersWithinBuild(t *testing.T) {
	m, err := NewProcessModel(testLayout(), 99)
	if err != nil {
		t.Fatal(err)
	}
	n := m.Layout().NumLayers()
	for _, s := range m.Sites() {
		if s.FirstLayer < 0 || s.LastLayer >= n || s.FirstLayer > s.LastLayer {
			t.Fatalf("site layer range [%d,%d] outside build 0..%d", s.FirstLayer, s.LastLayer, n-1)
		}
		if s.RadiusMM <= 0 {
			t.Fatalf("non-positive site radius %g", s.RadiusMM)
		}
		sp := m.Layout().Specimens[s.Specimen]
		if s.CenterXMM < sp.OriginXMM || s.CenterXMM > sp.OriginXMM+sp.WidthMM ||
			s.CenterYMM < sp.OriginYMM || s.CenterYMM > sp.OriginYMM+sp.LengthMM {
			t.Fatalf("site center outside its specimen: %+v", s)
		}
	}
}

func TestMachineRunControlled(t *testing.T) {
	job, err := NewJob("ctl", ScaledLayout(100), 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine("m", MachineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Adjust energy after layer 2, terminate after layer 4.
	var produced []LayerData
	err = m.RunControlled(context.Background(), job, 10, func(ld LayerData) error {
		produced = append(produced, ld)
		return nil
	}, func(layer int) (bool, map[string]float64) {
		switch layer {
		case 2:
			return false, map[string]float64{"energy_scale": 0.5}
		case 4:
			return true, nil
		default:
			return false, nil
		}
	})
	if !errors.Is(err, ErrTerminated) {
		t.Fatalf("RunControlled = %v, want ErrTerminated", err)
	}
	if len(produced) != 4 {
		t.Fatalf("produced %d layers, want 4", len(produced))
	}
	// Energy adjustment takes effect from layer 3 on: mean emission halves.
	sp := job.Layout.Specimens[0].RegionPx(job.Layout.MMPerPixel())
	before, _ := produced[1].Image.MaskedMean(sp)
	after, _ := produced[2].Image.MaskedMean(sp)
	if after > before*0.7 {
		t.Fatalf("energy adjustment had no effect: before=%g after=%g", before, after)
	}
	if got := job.Model.EnergyScale(); got != 0.5 {
		t.Fatalf("EnergyScale = %g, want 0.5", got)
	}
}

func TestSetEnergyScaleIgnoresNonPositive(t *testing.T) {
	m, err := NewProcessModel(ScaledLayout(100), 1)
	if err != nil {
		t.Fatal(err)
	}
	m.SetEnergyScale(-1)
	m.SetEnergyScale(0)
	if got := m.EnergyScale(); got != 1 {
		t.Fatalf("EnergyScale = %g, want 1", got)
	}
}

func TestDatasetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	job, err := NewJob("ds-job", ScaledLayout(100), 5)
	if err != nil {
		t.Fatal(err)
	}
	var progressCalls int
	m, err := SaveDataset(dir, job, 4, 5, func(layer, total int) { progressCalls++ })
	if err != nil {
		t.Fatal(err)
	}
	if m.Layers != 4 || m.JobID != "ds-job" || m.ImagePx != 100 {
		t.Fatalf("manifest = %+v", m)
	}
	if progressCalls != 4 {
		t.Fatalf("progress called %d times, want 4", progressCalls)
	}

	m2, layers, err := LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m2.JobID != m.JobID || m2.Layers != 4 || len(layers) != 4 {
		t.Fatalf("loaded manifest = %+v, %d layers", m2, len(layers))
	}
	// Loaded images equal freshly rendered ones.
	want, err := job.RenderLayer(2)
	if err != nil {
		t.Fatal(err)
	}
	got := layers[1].Image
	if got.Width != want.Width {
		t.Fatalf("dims %d vs %d", got.Width, want.Width)
	}
	for i := range want.Pix {
		if got.Pix[i] != want.Pix[i] {
			t.Fatalf("pixel %d differs after dataset round trip", i)
		}
	}
	// Params reconstructed.
	p := layers[1].Params
	if p.Layer != 2 || len(p.SpecimenRegions) != 12 || p.OrientationDeg != job.ParamsForLayer(2).OrientationDeg {
		t.Fatalf("params = %+v", p)
	}
}

func TestLoadDatasetErrors(t *testing.T) {
	if _, _, err := LoadDataset(t.TempDir()); err == nil {
		t.Fatal("LoadDataset on empty dir should fail")
	}
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/job.json", []byte("{bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadDataset(dir); err == nil {
		t.Fatal("LoadDataset with bad manifest should fail")
	}
}

func TestEncodeDecodeRegions(t *testing.T) {
	job, err := NewJob("r", ScaledLayout(200), 1)
	if err != nil {
		t.Fatal(err)
	}
	regions := job.ParamsForLayer(1).SpecimenRegions
	s := EncodeRegions(regions)
	back, err := DecodeRegions(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(regions) {
		t.Fatalf("decoded %d regions, want %d", len(back), len(regions))
	}
	for id, r := range regions {
		if back[id] != r {
			t.Fatalf("region %d: %v != %v", id, back[id], r)
		}
	}
	if empty, err := DecodeRegions(""); err != nil || len(empty) != 0 {
		t.Fatalf("empty decode: %v %v", empty, err)
	}
	if _, err := DecodeRegions("garbage"); err == nil {
		t.Fatal("DecodeRegions should reject garbage")
	}
}
