// Feedback-control: closing the loop the paper envisions (Figure 1B) —
// pipeline results drive continue / re-adjust / terminate decisions that
// reach the machine during the recoat gap.
//
// A simulated build starts with excessive laser energy density (the whole
// bed prints "very warm"). The monitoring pipeline counts very-warm cells
// per layer; a controller rule first orders an energy adjustment and, if
// the process stays out of family, terminates the job. The machine applies
// the commands between layers, so the build either recovers (saving the
// part) or stops early (saving powder, energy, and machine time).
//
//	go run ./examples/feedback-control
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"strata/internal/amsim"
	"strata/internal/bench"
	"strata/internal/core"
	"strata/internal/pubsub"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		layers  = flag.Int("layers", 20, "layers to print (at most)")
		imagePx = flag.Int("image", 300, "OT image resolution")
		// The bad build starts 40% too hot.
		initialEnergy = flag.Float64("energy", 1.4, "initial energy-density factor")
	)
	flag.Parse()

	broker := pubsub.NewBroker()
	defer broker.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	const jobID = "hot-build"
	layout := amsim.ScaledLayout(*imagePx)
	job, err := amsim.NewJob(jobID, layout, 11)
	if err != nil {
		return err
	}
	job.Model.SetEnergyScale(*initialEnergy)

	// Machine-side control port: receives and acknowledges commands.
	port, err := core.ListenMachinePort(broker, jobID)
	if err != nil {
		return err
	}
	defer port.Close()

	// Monitoring pipeline.
	storeDir, err := os.MkdirTemp("", "strata-feedback-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)
	fw, err := core.New(core.WithStoreDir(storeDir), core.WithBroker(broker), core.WithName("feedback"))
	if err != nil {
		return err
	}
	defer fw.Close()

	// Calibrate against a healthy historical build (energy 1.0).
	calJob, err := amsim.NewJob("healthy-history", layout, 10)
	if err != nil {
		return err
	}
	if err := bench.CalibrateReference(fw, calJob, 3); err != nil {
		return err
	}

	otCh := make(chan core.EventTuple, 2)
	src := fw.AddSource("ot", func(ctx context.Context, emit func(core.EventTuple) error) error {
		for {
			select {
			case t, ok := <-otCh:
				if !ok {
					return nil
				}
				if err := emit(t); err != nil {
					return err
				}
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	})

	// Detect: fraction of very-warm cells across the whole bed.
	warm := fw.DetectEvent("warmth", src, func(t *core.EventTuple, emit func(*core.EventTuple) error) error {
		img, ok := t.GetImage("ot")
		if !ok {
			return fmt.Errorf("layer tuple without image")
		}
		ref, err := fw.GetFloat("strata/ot/reference_emission")
		if err != nil {
			return err
		}
		regionsStr, _ := t.GetString("regions")
		regions, err := amsim.DecodeRegions(regionsStr)
		if err != nil {
			return err
		}
		veryWarm, total := 0, 0
		for _, r := range regions {
			cells, err := img.SplitCells(r, 4)
			if err != nil {
				return err
			}
			for _, c := range cells {
				total++
				if c.Mean/ref > 1.3 {
					veryWarm++
				}
			}
		}
		frac := float64(veryWarm) / float64(total)
		out := t.WithKV("very_warm_fraction", frac)
		return emit(&out)
	})

	shares := fw.Share(warm, 2)

	// Expert view.
	fw.Deliver("expert", shares[0], func(t core.EventTuple) error {
		frac, _ := t.GetFloat("very_warm_fraction")
		fmt.Printf("layer %2d: %5.1f%% of cells very warm\n", t.Layer, frac*100)
		return nil
	})

	// Controller rule: above 30% very-warm → adjust once; if still above
	// 30% two layers after adjusting → terminate.
	adjustedAt := 0
	fw.AttachController("controller", shares[1], func(t core.EventTuple) (core.Command, bool) {
		frac, _ := t.GetFloat("very_warm_fraction")
		if frac <= 0.3 {
			return core.Command{}, false
		}
		if adjustedAt == 0 {
			adjustedAt = t.Layer
			return core.Command{
				Action: core.ActionAdjust,
				Params: map[string]float64{"energy_scale": 1.0},
				Reason: fmt.Sprintf("%.0f%% very-warm cells", frac*100),
			}, true
		}
		if t.Layer >= adjustedAt+2 {
			return core.Command{
				Action: core.ActionTerminate,
				Reason: "process stayed out of family after adjustment",
			}, true
		}
		return core.Command{}, false
	}, 5*time.Second, func(cmd core.Command, _ []byte) {
		fmt.Printf(">>> control: %s at layer %d (%s)\n", cmd.Action, cmd.Layer, cmd.Reason)
	})

	// Machine run with the control hook polling the port.
	machine, err := amsim.NewMachine("eos-sim", amsim.MachineConfig{RecoatGap: 50 * time.Millisecond})
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	var machineErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(otCh)
		machineErr = machine.RunControlled(ctx, job, *layers, func(ld amsim.LayerData) error {
			t := core.EventTuple{
				TS:          time.UnixMicro(int64(ld.Layer) * 1_000_000),
				Job:         ld.JobID,
				Layer:       ld.Layer,
				AvailableAt: time.Now(),
				KV: map[string]any{
					"ot":      ld.Image,
					"regions": amsim.EncodeRegions(ld.Params.SpecimenRegions),
				},
			}
			select {
			case otCh <- t:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}, func(layer int) (bool, map[string]float64) {
			// The recoat-gap decision point: apply whatever the
			// controller ordered so far.
			params := map[string]float64{}
			if v, ok := port.Param("energy_scale"); ok {
				params["energy_scale"] = v
			}
			return port.Terminated(), params
		})
	}()

	if err := fw.Run(ctx); err != nil {
		return err
	}
	wg.Wait()

	switch {
	case errors.Is(machineErr, amsim.ErrTerminated):
		fmt.Println("\nbuild TERMINATED by the feedback loop — powder and machine time saved")
	case machineErr != nil:
		return machineErr
	default:
		fmt.Println("\nbuild completed — the adjustment brought the process back in family")
	}
	for _, cmd := range port.Commands() {
		fmt.Printf("  command log: layer %d %s (%s)\n", cmd.Layer, cmd.Action, cmd.Reason)
	}
	return nil
}
