// Late-deployment: ad-hoc pipelines over recorded connectors.
//
// The paper separates STRATA's modules precisely "so that multiple event
// detection methods can be continuously deployed, run (potentially in
// parallel), and decommissioned". This example shows that lifecycle:
//
//  1. a build runs with only a basic monitoring pipeline deployed, while a
//     Recorder persists the raw-data connector into a durable topic log;
//
//  2. mid-way, the expert deploys a SECOND detection method (porosity-risk
//     scoring) without touching the running pipeline — it first replays the
//     recorded layers it missed, then the build completes;
//
//  3. the first pipeline is decommissioned while the second keeps running.
//
//     go run ./examples/late-deployment
package main

import (
	"context"
	"fmt"
	"log"
	"os"
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
	broker := pubsub.NewBroker()
	defer broker.Close()

	logDir, err := os.MkdirTemp("", "strata-topics-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(logDir)
	topics, err := pubsub.OpenLogStore(logDir)
	if err != nil {
		return err
	}
	defer topics.Close()

	storeDir, err := os.MkdirTemp("", "strata-mgr-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)
	mgr, err := core.NewManager(storeDir, broker)
	if err != nil {
		return err
	}
	defer mgr.Close()

	const jobID = "late-deploy-build"
	rawSubject := core.RawSubject("ot", jobID)

	// Record everything the raw connector publishes, durably.
	rec, err := pubsub.Record(broker, rawSubject, topics)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// The build: 16 layers, paced so the mid-build deployment is visible.
	layout := amsim.ScaledLayout(300)
	job, err := amsim.NewJob(jobID, layout, 21)
	if err != nil {
		return err
	}
	replay, err := bench.Replay(job, 16)
	if err != nil {
		return err
	}

	producer, err := mgr.Deploy("machine-feed", func(fw *core.Framework) error {
		feed := &bench.ReplayFeed{Layers: replay, Gap: 80 * time.Millisecond}
		src := fw.AddSource("ot", mergedOT(feed))
		fw.Deliver("drop", src, func(core.EventTuple) error { return nil })
		return nil
	})
	if err != nil {
		return err
	}

	// Pipeline 1 (deployed from layer 1): coarse mean-emission monitor.
	p1, err := mgr.Deploy("mean-monitor", func(fw *core.Framework) error {
		in := fw.AddBrokerSource("tap", rawSubject, len(replay))
		det := fw.DetectEvent("mean", in, func(t *core.EventTuple, emit func(*core.EventTuple) error) error {
			img, ok := t.GetImage("ot")
			if !ok {
				return fmt.Errorf("no image")
			}
			mean, _ := img.MeanNonZero()
			out := t.WithKV("mean", mean)
			return emit(&out)
		})
		fw.Deliver("expert", det, func(t core.EventTuple) error {
			mean, _ := t.GetFloat("mean")
			fmt.Printf("[mean-monitor]    layer %2d: bed emission %.0f\n", t.Layer, mean)
			return nil
		})
		return nil
	})
	if err != nil {
		return err
	}

	// Mid-build: wait until roughly half the layers are recorded, then
	// deploy the second detection method. It replays layers 1..k from the
	// topic log before following the stream live.
	for topics.Len(rawSubject) < 8 {
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf(">>> deploying porosity-risk detector mid-build (after %d recorded layers)\n",
		topics.Len(rawSubject))
	allSeen := make(chan struct{})
	p2, err := mgr.Deploy("porosity-risk", func(fw *core.Framework) error {
		in := fw.AddReplaySource("replay+live", topics, rawSubject, true)
		det := fw.DetectEvent("risk", in, func(t *core.EventTuple, emit func(*core.EventTuple) error) error {
			img, ok := t.GetImage("ot")
			if !ok {
				return fmt.Errorf("no image")
			}
			// Cheap risk score: fraction of printed pixels below 80% of
			// the bed mean (lack-of-fusion indicator).
			mean, okMean := img.MeanNonZero()
			if !okMean {
				return nil
			}
			low, total := 0, 0
			for _, v := range img.Pix {
				if v == 0 {
					continue
				}
				total++
				if float64(v) < 0.8*mean {
					low++
				}
			}
			out := t.WithKV("risk", float64(low)/float64(total))
			return emit(&out)
		})
		count := 0
		fw.Deliver("expert", det, func(t core.EventTuple) error {
			risk, _ := t.GetFloat("risk")
			fmt.Printf("[porosity-risk]   layer %2d: %.2f%% low-fusion pixels\n", t.Layer, risk*100)
			count++
			if count == len(replay) {
				close(allSeen) // processed the whole build (replayed + live)
			}
			return nil
		})
		return nil
	})
	if err != nil {
		return err
	}

	if err := producer.Wait(); err != nil {
		return err
	}
	if err := p1.Wait(); err != nil {
		return err
	}
	// Wait until the late pipeline has covered the whole build (replayed
	// layers + live tail), then decommission it — its live subscription
	// would otherwise run forever.
	select {
	case <-allSeen:
	case <-ctx.Done():
		return ctx.Err()
	}
	fmt.Println(">>> porosity-risk covered all layers; decommissioning it")
	if err := mgr.Decommission("porosity-risk"); err != nil {
		return err
	}
	if err := p2.Wait(); err != nil {
		return err
	}
	if err := rec.Stop(); err != nil {
		return err
	}
	fmt.Printf("done: %d layers recorded durably in %s\n", topics.Len(rawSubject), logDir)
	return nil
}

// mergedOT replays layer tuples carrying the OT image (regions omitted:
// these detectors work on the whole bed).
func mergedOT(feed *bench.ReplayFeed) core.CollectFunc {
	return feed.OTCollector()
}
