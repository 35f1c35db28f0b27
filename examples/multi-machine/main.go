// Multi-machine: several PBF-LB machines monitored in parallel through the
// pub/sub connectors — the paper's "manufacturing facility can count on
// many PBF-LB machines" scenario (§3, requirement 3).
//
// Each simulated machine runs its own producer framework whose raw-data
// connector publishes OT tuples on the shared broker (in the paper:
// Kafka). One analysis framework per machine taps the connector with
// AddBrokerSource and runs the Algorithm 1 pipeline. Everything is
// in-process here; to span hosts, run strata-broker and dial it from each
// host with pubsub.DialReconnect: machines publish with DeliverToConn and
// analysis hosts consume with AddConnSource.
//
//	go run ./examples/multi-machine [-machines 3] [-layers 10]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"strata/internal/amsim"
	"strata/internal/bench"
	"strata/internal/cluster"
	"strata/internal/core"
	"strata/internal/otimage"
	"strata/internal/pubsub"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		machines = flag.Int("machines", 3, "number of simulated PBF-LB machines")
		layers   = flag.Int("layers", 10, "layers each machine prints")
		imagePx  = flag.Int("image", 400, "OT image resolution (paper: 2000)")
	)
	flag.Parse()

	broker := pubsub.NewBroker()
	defer broker.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	layout := amsim.ScaledLayout(*imagePx)

	var wg sync.WaitGroup
	errCh := make(chan error, 2**machines)
	var mu sync.Mutex
	totalResults := map[string]int{}
	totalClusters := map[string]int{}

	for m := 0; m < *machines; m++ {
		jobID := fmt.Sprintf("machine%02d-job", m)
		job, err := amsim.NewJob(jobID, layout, int64(100+m))
		if err != nil {
			return err
		}
		replay, err := bench.Replay(job, *layers)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "machine %d: rendered %d layers\n", m, len(replay))

		// Consumer first, so its subscription exists before production
		// starts (core pub/sub is at-most-once, like NATS).
		consumerDir, err := os.MkdirTemp("", "strata-mm-consumer-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(consumerDir)
		consumer, err := core.New(
			core.WithStoreDir(consumerDir),
			core.WithBroker(broker),
			core.WithName("analysis-"+jobID),
		)
		if err != nil {
			return err
		}
		defer consumer.Close()
		if err := bench.CalibrateFromLayers(consumer, replay, 3); err != nil {
			return err
		}

		// The analysis pipeline taps the machine's raw OT connector. The
		// pp parameters travel in the same tuple here (fused at the
		// producer), so the consumer needs a single source.
		in := consumer.AddBrokerSource("tap", core.RawSubject("ot", jobID), *layers,
			pubsub.WithSubBuffer(*layers+4))
		spec := consumer.Partition("spec", in, specimenPartition)
		cells := consumer.Partition("cell", spec, cellPartition(layout.MMPerPixel()))
		det := consumer.DetectEvent("label", cells, labelCells(consumer))
		cor := consumer.CorrelateEvents("clusters", det, 5, clusterEvents(layout.LayerMM))
		consumer.Deliver("expert", cor, func(t core.EventTuple) error {
			n, _ := t.GetInt("clusters")
			mu.Lock()
			totalResults[jobID]++
			totalClusters[jobID] += int(n)
			mu.Unlock()
			return nil
		})

		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := consumer.Run(ctx); err != nil {
				errCh <- fmt.Errorf("consumer %s: %w", jobID, err)
			}
		}()

		// Producer framework: replays the machine's layers; its raw
		// connector publishes each tuple on the broker.
		producerDir, err := os.MkdirTemp("", "strata-mm-producer-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(producerDir)
		producer, err := core.New(
			core.WithStoreDir(producerDir),
			core.WithBroker(broker),
			core.WithName("machine-"+jobID),
		)
		if err != nil {
			return err
		}
		defer producer.Close()
		feed := &bench.ReplayFeed{Layers: replay, Gap: 20 * time.Millisecond}
		otSrc := producer.AddSource("ot", mergedCollector(feed))
		producer.Deliver("noop", otSrc, func(core.EventTuple) error { return nil })

		wg.Add(1)
		go func() {
			defer wg.Done()
			// Give the consumer's subscription a beat to attach.
			time.Sleep(50 * time.Millisecond)
			if err := producer.Run(ctx); err != nil {
				errCh <- fmt.Errorf("producer %s: %w", jobID, err)
			}
		}()
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		return err
	}

	fmt.Printf("\nmonitored %d machines in parallel:\n", *machines)
	for job, n := range totalResults {
		fmt.Printf("  %s: %d specimen-layer reports, %d defect clusters\n",
			job, n, totalClusters[job])
	}
	st := broker.Stats()
	fmt.Printf("broker: %d published, %d delivered\n", st.Published, st.Delivered)
	return nil
}

// mergedCollector emits one tuple per layer carrying BOTH the OT image and
// the printing parameters (fused at the producer side to halve connector
// traffic).
func mergedCollector(feed *bench.ReplayFeed) core.CollectFunc {
	ot := feed.OTCollector()
	return func(ctx context.Context, emit func(core.EventTuple) error) error {
		i := 0
		return ot(ctx, func(t core.EventTuple) error {
			ld := feed.Layers[i]
			i++
			t = t.WithKV("regions", amsim.EncodeRegions(ld.Params.SpecimenRegions))
			return emit(t)
		})
	}
}

func specimenPartition(t *core.EventTuple, emit func(*core.EventTuple) error) error {
	img, ok := t.GetImage("ot")
	if !ok {
		return fmt.Errorf("no OT image in %v", t)
	}
	regionsStr, _ := t.GetString("regions")
	regions, err := amsim.DecodeRegions(regionsStr)
	if err != nil {
		return err
	}
	for id := 0; id < len(regions); id++ {
		sub, err := img.SubImage(regions[id])
		if err != nil {
			return err
		}
		err = emit(&core.EventTuple{
			Specimen: fmt.Sprintf("spec%02d", id),
			KV: map[string]any{
				"img": sub,
				"ox":  int64(regions[id].X0),
				"oy":  int64(regions[id].Y0),
			},
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func cellPartition(mmpp float64) core.PartitionFunc {
	return func(t *core.EventTuple, emit func(*core.EventTuple) error) error {
		img, _ := t.GetImage("img")
		ox, _ := t.GetInt("ox")
		oy, _ := t.GetInt("oy")
		cells, err := img.SplitCells(otimage.Rect{X1: img.Width, Y1: img.Height}, 5)
		if err != nil {
			return err
		}
		for _, c := range cells {
			err := emit(&core.EventTuple{
				Specimen: t.Specimen,
				Portion:  fmt.Sprintf("c%d-%d", c.Col, c.Row),
				KV: map[string]any{
					"mean": c.Mean,
					"cx":   (float64(c.Region.X0+c.Region.X1)/2 + float64(ox)) * mmpp,
					"cy":   (float64(c.Region.Y0+c.Region.Y1)/2 + float64(oy)) * mmpp,
				},
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
}

func labelCells(fw *core.Framework) core.DetectFunc {
	return func(t *core.EventTuple, emit func(*core.EventTuple) error) error {
		ref, err := fw.GetFloat("strata/ot/reference_emission")
		if err != nil {
			return err
		}
		mean, _ := t.GetFloat("mean")
		ratio := mean / ref
		if ratio >= 0.7 && ratio <= 1.3 {
			return nil
		}
		return emit(t)
	}
}

func clusterEvents(layerMM float64) core.CorrelateFunc {
	return func(w core.CorrelateWindow, emit func(core.EventTuple) error) error {
		pts := make([]cluster.Point, 0, len(w.Events))
		for _, e := range w.Events {
			cx, _ := e.GetFloat("cx")
			cy, _ := e.GetFloat("cy")
			pts = append(pts, cluster.Point{X: cx, Y: cy, Z: float64(e.Layer) * layerMM, Weight: 1})
		}
		labels, err := cluster.DBSCAN(pts, 4, 3)
		if err != nil {
			return err
		}
		sums := cluster.Summarize(pts, labels)
		return emit(core.EventTuple{KV: map[string]any{
			"clusters": int64(len(sums)),
			"events":   int64(len(pts)),
		}})
	}
}
