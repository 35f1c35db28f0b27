package amsim

import (
	"fmt"

	"strata/internal/otimage"
)

// PrintingParams is the per-layer parameter record the machine's job file
// carries — the payload of the paper's PrintingParameterCollector source.
type PrintingParams struct {
	JobID          string
	Layer          int // 1-based, as operators see it
	LaserPowerW    float64
	ScanSpeedMMS   float64
	HatchMM        float64
	OrientationDeg float64
	// SpecimenRegions maps specimen ID → pixel region in the layer's OT
	// image; isolateSpecimen() uses it to slice the image.
	SpecimenRegions map[int]otimage.Rect
}

// Job is one complete build submitted to a machine.
type Job struct {
	ID     string
	Layout Layout
	Model  *ProcessModel

	// Nominal process parameters (EOS M290 Ti-6Al-4V-like defaults).
	LaserPowerW  float64
	ScanSpeedMMS float64
	HatchMM      float64
}

// NewJob creates a job over the given layout, with defect sites generated
// from seed.
func NewJob(id string, layout Layout, seed int64) (*Job, error) {
	if id == "" {
		return nil, fmt.Errorf("amsim: empty job id")
	}
	model, err := NewProcessModel(layout, seed)
	if err != nil {
		return nil, err
	}
	return &Job{
		ID:           id,
		Layout:       layout,
		Model:        model,
		LaserPowerW:  280,
		ScanSpeedMMS: 1200,
		HatchMM:      0.14,
	}, nil
}

// NumLayers returns the job's layer count.
func (j *Job) NumLayers() int { return j.Layout.NumLayers() }

// ParamsForLayer returns the printing-parameter record of a layer (1-based).
func (j *Job) ParamsForLayer(layer int) PrintingParams {
	regions := make(map[int]otimage.Rect, len(j.Layout.Specimens))
	mmpp := j.Layout.MMPerPixel()
	for _, sp := range j.Layout.Specimens {
		regions[sp.ID] = sp.RegionPx(mmpp)
	}
	return PrintingParams{
		JobID:           j.ID,
		Layer:           layer,
		LaserPowerW:     j.LaserPowerW,
		ScanSpeedMMS:    j.ScanSpeedMMS,
		HatchMM:         j.HatchMM,
		OrientationDeg:  j.Layout.ScanOrientationDeg(layer - 1),
		SpecimenRegions: regions,
	}
}

// RenderLayer synthesizes the OT image of a layer (1-based).
func (j *Job) RenderLayer(layer int) (*otimage.Image, error) {
	if layer < 1 || layer > j.NumLayers() {
		return nil, fmt.Errorf("amsim: layer %d out of range 1..%d", layer, j.NumLayers())
	}
	return j.Model.RenderLayer(layer - 1), nil
}
