// Quickstart: the smallest useful STRATA pipeline.
//
// A single source plays the role of a PBF-LB machine reporting one
// melt-pool temperature summary per layer. A detectEvent stage flags layers
// whose temperature deviates from a threshold stored in the key-value
// store, and Deliver hands the alerts to the "expert" (here: stdout).
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"
	"time"

	"strata/internal/core"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	storeDir, err := os.MkdirTemp("", "strata-quickstart-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)

	// A Framework bundles the stream engine and the key-value store.
	fw, err := core.New(core.WithStoreDir(storeDir), core.WithName("quickstart"))
	if err != nil {
		return err
	}
	defer fw.Close()

	// Data-at-rest: thresholds learned from previous jobs live in the
	// store and are read inside the pipeline (Table 1's store/get).
	if err := fw.StoreFloat("temp/max_deviation", 40); err != nil {
		return err
	}

	// addSource: one tuple per layer ⟨τ, job, layer, [temp:v]⟩. A real
	// deployment would wrap the machine's sensor API here.
	const layers = 30
	source := fw.AddSource("melt-pool", func(ctx context.Context, emit func(core.EventTuple) error) error {
		base := time.Now()
		for layer := 1; layer <= layers; layer++ {
			// Synthetic temperature: drifts with a bump around layer 20.
			temp := 1000 + 10*math.Sin(float64(layer)/3)
			if layer >= 18 && layer <= 22 {
				temp += 60 // process excursion the pipeline must catch
			}
			err := emit(core.EventTuple{
				TS:    base.Add(time.Duration(layer) * time.Second),
				Job:   "quickstart-job",
				Layer: layer,
				KV:    map[string]any{"temp": temp},
			})
			if err != nil {
				return err
			}
		}
		return nil
	})

	// detectEvent: flag layers deviating beyond the stored threshold.
	alerts := fw.DetectEvent("deviation", source, func(t *core.EventTuple, emit func(*core.EventTuple) error) error {
		maxDev, err := fw.GetFloat("temp/max_deviation")
		if err != nil {
			return err
		}
		temp, _ := t.GetFloat("temp")
		if dev := math.Abs(temp - 1000); dev > maxDev {
			out := t.WithKV("deviation", dev)
			return emit(&out)
		}
		return nil
	})

	// Deliver: the expert's view of the pipeline.
	fw.Deliver("expert", alerts, func(t core.EventTuple) error {
		dev, _ := t.GetFloat("deviation")
		fmt.Printf("ALERT layer %2d: melt-pool temperature deviates by %.1f K\n", t.Layer, dev)
		return nil
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fw.Run(ctx); err != nil {
		return err
	}
	fmt.Println("job complete")
	return nil
}
