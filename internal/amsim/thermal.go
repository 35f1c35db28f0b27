package amsim

import (
	"math"
	"math/rand"
	"sync"

	"strata/internal/otimage"
)

// Emission model constants. OT gray values are dimensionless counts; the
// pipeline only ever compares them against thresholds derived from history,
// so their absolute magnitude is a free choice.
const (
	// baseEmission is the nominal melt-pool emission at the reference
	// energy density.
	baseEmission = 30000.0
	// emissionNoiseSigma is the per-pixel shot/speckle noise.
	emissionNoiseSigma = 900.0
	// stripeAmplitude modulates emission along scan stripes (hatch
	// pattern visible in real OT images).
	stripeAmplitude = 0.04
	// coldFactor / hotFactor scale emission inside defect sites: cold
	// sites are spatter-shadowed lack-of-fusion regions, hot sites are
	// overheated zones.
	coldFactor = 0.55
	hotFactor  = 1.5
)

// DefectSite is a localized process anomaly: a disc on the plate where, for
// a range of layers, thermal emission deviates from nominal. Sites persist
// across layers (defects grow vertically), which is what the L-layer
// inter-layer clustering of the use-case is designed to catch.
type DefectSite struct {
	Specimen   int
	CenterXMM  float64
	CenterYMM  float64
	RadiusMM   float64
	FirstLayer int
	LastLayer  int // inclusive
	Hot        bool
}

// ProcessModel generates per-layer OT images for a layout. It is
// deterministic for a given seed.
type ProcessModel struct {
	layout Layout
	seed   int64
	sites  []DefectSite

	// mu guards energyScale, which feedback control can adjust while the
	// machine goroutine renders (see Machine.RunControlled).
	mu sync.Mutex
	// energyScale multiplies the nominal emission, modelling the laser
	// energy density of the job's parameter set (1.0 at construction;
	// values far from 1 shift the whole build towards cold/hot).
	energyScale float64
}

// NewProcessModel creates the thermal model and pre-generates the build's
// defect sites from the seed.
func NewProcessModel(layout Layout, seed int64) (*ProcessModel, error) {
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	m := &ProcessModel{layout: layout, seed: seed, energyScale: 1}
	m.generateSites()
	return m, nil
}

// Layout returns the model's build layout.
func (m *ProcessModel) Layout() Layout { return m.layout }

// Sites returns the generated defect sites (read-only; shared slice).
func (m *ProcessModel) Sites() []DefectSite { return m.sites }

// EnergyScale returns the current energy-density factor.
func (m *ProcessModel) EnergyScale() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.energyScale
}

// SetEnergyScale adjusts the energy-density factor for subsequent layers —
// the knob a re-adjust control command turns. Non-positive values are
// ignored.
func (m *ProcessModel) SetEnergyScale(s float64) {
	if s <= 0 {
		return
	}
	m.mu.Lock()
	m.energyScale = s
	m.mu.Unlock()
}

// gasFlowAlignment returns how strongly a stack's scan orientation couples
// with the gas flow, in [0, 1]. Gas flows from the back to the front of the
// chamber (−y). Scanning against/along the flow (|sin| of the angle large)
// drags spatter across freshly melted surface, increasing defect incidence
// — the mechanism the paper's data section describes.
func gasFlowAlignment(orientationDeg float64) float64 {
	return math.Abs(math.Sin(orientationDeg * math.Pi / 180))
}

// generateSites creates defect sites stack by stack: each stack rolls a
// defect count per specimen proportional to its gas-flow alignment, placing
// discs that persist for a random number of layers within the stack (and
// may bleed into the next).
func (m *ProcessModel) generateSites() {
	rng := rand.New(rand.NewSource(m.seed))
	numStacks := int(m.layout.HeightMM/m.layout.StackMM + 0.5)
	lps := m.layout.LayersPerStack()
	for stack := 0; stack < numStacks; stack++ {
		orientation := m.layout.ScanOrientationDeg(stack * lps)
		align := gasFlowAlignment(orientation)
		for _, sp := range m.layout.Specimens {
			// Expected defects per specimen-stack: 0.2 (calm) to 1.4
			// (max alignment). Sampled as a small Poisson-ish count.
			expected := 0.2 + 1.2*align
			n := 0
			for expected > 0 {
				if rng.Float64() < expected {
					n++
				}
				expected--
			}
			for i := 0; i < n; i++ {
				radius := 0.8 + rng.Float64()*1.8 // 0.8-2.6 mm
				// Keep the disc inside the block.
				cx := sp.OriginXMM + radius + rng.Float64()*(sp.WidthMM-2*radius)
				cy := sp.OriginYMM + radius + rng.Float64()*(sp.LengthMM-2*radius)
				first := stack*lps + rng.Intn(lps)
				span := 1 + rng.Intn(2*lps) // may cross into the next stack
				last := first + span - 1
				if max := m.layout.NumLayers() - 1; last > max {
					last = max
				}
				m.sites = append(m.sites, DefectSite{
					Specimen:   sp.ID,
					CenterXMM:  cx,
					CenterYMM:  cy,
					RadiusMM:   radius,
					FirstLayer: first,
					LastLayer:  last,
					Hot:        rng.Float64() < 0.4,
				})
			}
		}
	}
}

// activeSites returns the sites affecting a layer.
func (m *ProcessModel) activeSites(layer int) []DefectSite {
	var out []DefectSite
	for _, s := range m.sites {
		if layer >= s.FirstLayer && layer <= s.LastLayer {
			out = append(out, s)
		}
	}
	return out
}

// RenderLayer synthesizes the OT image of one layer (0-based).
func (m *ProcessModel) RenderLayer(layer int) *otimage.Image {
	mmpp := m.layout.MMPerPixel()
	im := otimage.New(m.layout.ImagePx, m.layout.ImagePx, mmpp)
	energyScale := m.EnergyScale()
	orientation := m.layout.ScanOrientationDeg(layer)
	theta := orientation * math.Pi / 180
	dirX, dirY := math.Cos(theta), math.Sin(theta)
	sites := m.activeSites(layer)

	// Per-layer deterministic noise stream: a fast 64-bit LCG seeded from
	// (model seed, layer), advanced per pixel. rand.Rand per pixel would
	// dominate the render time at 4M pixels.
	state := uint64(m.seed)*0x9E3779B97F4A7C15 + uint64(layer+1)*0xBF58476D1CE4E5B9
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state
	}
	// gaussApprox: sum of 4 uniforms, variance 4/12 → scale to sigma 1.
	gauss := func() float64 {
		sum := 0.0
		for i := 0; i < 4; i++ {
			sum += float64(next()>>11) / (1 << 53)
		}
		return (sum - 2) * math.Sqrt(3)
	}

	// Hatch stripe period in mm (hatch spacing ~0.1 mm is sub-pixel at
	// default resolution; OT integrates several stripes, so we render a
	// coarser beat pattern).
	const stripePeriodMM = 1.2

	for _, sp := range m.layout.Specimens {
		r := sp.RegionPx(mmpp)
		for y := r.Y0; y < r.Y1; y++ {
			ymm := (float64(y) + 0.5) * mmpp
			base := y * im.Width
			for x := r.X0; x < r.X1; x++ {
				xmm := (float64(x) + 0.5) * mmpp
				// Stripe modulation along the scan direction.
				along := xmm*dirX + ymm*dirY
				v := baseEmission * energyScale *
					(1 + stripeAmplitude*math.Sin(2*math.Pi*along/stripePeriodMM))
				// Defect sites override the local emission.
				for _, s := range sites {
					if s.Specimen != sp.ID {
						continue
					}
					dx := xmm - s.CenterXMM
					dy := ymm - s.CenterYMM
					if dx*dx+dy*dy <= s.RadiusMM*s.RadiusMM {
						if s.Hot {
							v *= hotFactor
						} else {
							v *= coldFactor
						}
						break
					}
				}
				v += gauss() * emissionNoiseSigma
				if v < 0 {
					v = 0
				}
				if v > 65535 {
					v = 65535
				}
				// Printed pixels never render as exact 0 (reserved
				// for unprinted background).
				iv := uint16(v)
				if iv == 0 {
					iv = 1
				}
				im.Pix[base+x] = iv
			}
		}
	}
	return im
}
