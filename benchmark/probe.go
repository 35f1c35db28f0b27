package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"strata/internal/bench"
	"strata/internal/cluster"
	"strata/internal/core"
	"strata/internal/otimage"
	"strata/internal/pubsub"
)

// probeResult holds the serial stage probe: what each layer's public
// function costs when called directly, once, on the ring — the price list
// for the stages a traced run cannot see inside bench.BuildPipeline.
type probeResult struct {
	marshalMS       float64
	unmarshalMS     float64
	encodeMS        float64
	decodeMS        float64
	frameBytes      float64
	encodeVerdictUS float64
	decodeVerdictUS float64
	splitMS         float64
	cells           float64
	dbscanMS        float64
	summarizeUS     float64
	// dbscanP50MS and summarizeP50MS are the medians over the ring's layers
	// of what the means above average: the budget table compares them with
	// span medians, and on a deep window the mean sits well above the median.
	dbscanP50MS    float64
	summarizeP50MS float64
	logReadMBPerS  float64
}

// probeLayers bounds how many ring layers the image-sized probes touch.
const probeLayers = 4

func runProbes(p plan, r *ring, ref *reference, sysDir string) (probeResult, error) {
	var pr probeResult
	n := probeLayers
	if n > len(r.layers) {
		n = len(r.layers)
	}
	if err := probeCodecs(r, n, &pr); err != nil {
		return pr, err
	}
	if err := probeSplit(p, r, n, &pr); err != nil {
		return pr, err
	}
	if err := probeCluster(p, r, ref, &pr); err != nil {
		return pr, err
	}
	if p.replay {
		if err := probeLogRead(filepath.Join(sysDir, "log"), &pr); err != nil {
			return pr, err
		}
	}
	return pr, nil
}

// probeCodecs times the image codec and the connector codec on whole
// frames, and the connector codec on a verdict tuple.
func probeCodecs(r *ring, n int, pr *probeResult) error {
	var marshal, unmarshal, encode, decode time.Duration
	var buf, frame []byte
	for l := 1; l <= n; l++ {
		im := r.layers[l-1].Image
		start := time.Now()
		buf = im.MarshalAppend(buf[:0])
		marshal += time.Since(start)
		start = time.Now()
		if _, err := otimage.Unmarshal(buf); err != nil {
			return err
		}
		unmarshal += time.Since(start)

		ppT, otT := r.tuples(0, l, time.Time{})
		var err error
		start = time.Now()
		frame, err = core.EncodeTupleAppend(frame[:0], otT)
		encode += time.Since(start)
		if err != nil {
			return err
		}
		start = time.Now()
		if _, err := core.DecodeTuple(frame); err != nil {
			return err
		}
		decode += time.Since(start)
		ppFrame, err := core.EncodeTuple(ppT)
		if err != nil {
			return err
		}
		pr.frameBytes += float64(len(frame) + len(ppFrame))
	}
	pr.marshalMS = ms(marshal) / float64(n)
	pr.unmarshalMS = ms(unmarshal) / float64(n)
	pr.encodeMS = ms(encode) / float64(n)
	pr.decodeMS = ms(decode) / float64(n)
	pr.frameBytes /= float64(n)

	const reps = 2000
	vt := verdictTuple("b1", 1, "spec00", 42, digest{1, 2, 3, 4, 5, 6, 7, 8})
	var vbuf []byte
	start := time.Now()
	for i := 0; i < reps; i++ {
		var err error
		if vbuf, err = core.EncodeTupleAppend(vbuf[:0], vt); err != nil {
			return err
		}
	}
	pr.encodeVerdictUS = ms(time.Since(start)) * 1000 / reps
	start = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := core.DecodeTuple(vbuf); err != nil {
			return err
		}
	}
	pr.decodeVerdictUS = ms(time.Since(start)) * 1000 / reps
	return nil
}

// probeSplit times isolateCell()'s slicing: every specimen view of a layer
// split into cells of the workload's edge.
func probeSplit(p plan, r *ring, n int, pr *probeResult) error {
	var cells []otimage.Cell
	var total time.Duration
	for l := 1; l <= n; l++ {
		ld := r.layers[l-1]
		for _, region := range ld.Params.SpecimenRegions {
			start := time.Now()
			v, err := ld.Image.ViewOf(region)
			if err != nil {
				return err
			}
			cells, err = v.AppendSplitCells(cells[:0], p.cellPx)
			total += time.Since(start)
			if err != nil {
				return err
			}
			pr.cells += float64(len(cells))
		}
	}
	pr.splitMS = ms(total) / float64(n)
	pr.cells /= float64(n)
	return nil
}

// probeCluster replays correlateEvents' work outside the pipeline: for
// every layer and specimen of the ring it clusters the window's event
// points (captured from the event connector by the tapped oracle) with
// cluster.DBSCAN and cluster.Summarize, and requires the outcome to hash
// to the oracle's verdict — so the probe prices exactly the computation
// the pipeline runs.
func probeCluster(p plan, r *ring, ref *reference, pr *probeResult) error {
	specs := make(map[string]bool)
	for k := range ref.digests {
		specs[k.specimen] = true
	}
	names := make([]string, 0, len(specs))
	for s := range specs {
		names = append(names, s)
	}
	sort.Strings(names)

	var dbscanMS, summarizeMS []float64
	var pts []cluster.Point
	for l := 1; l <= len(r.layers); l++ {
		var dbscan, summarize time.Duration
		for _, spec := range names {
			pts = pts[:0]
			for wl := l - p.l + 1; wl <= l; wl++ {
				pts = append(pts, ref.events[layerSpec{wl, spec}]...)
			}
			start := time.Now()
			labels, err := cluster.DBSCAN(pts, p.params.EpsMM, p.params.MinPts)
			dbscan += time.Since(start)
			if err != nil {
				return err
			}
			start = time.Now()
			sums := cluster.Summarize(pts, labels)
			summarize += time.Since(start)
			kept := sums[:0]
			for _, s := range sums {
				if float64(s.Size) >= p.params.MinClusterCells {
					kept = append(kept, s)
				}
			}
			got := digestOf(bench.Result{Events: len(pts), Clusters: kept})
			if want := ref.digests[layerSpec{l, spec}]; got != want {
				return fmt.Errorf("cluster probe diverged from the pipeline at layer %d %s (%d points)", l, spec, len(pts))
			}
		}
		dbscanMS = append(dbscanMS, ms(dbscan))
		summarizeMS = append(summarizeMS, ms(summarize))
	}
	pr.dbscanMS, pr.dbscanP50MS = mean(dbscanMS), median(dbscanMS)
	pr.summarizeUS, pr.summarizeP50MS = mean(summarizeMS)*1000, median(summarizeMS)
	return nil
}

// probeLogRead reads the recorded build back with a local cursor.
func probeLogRead(dir string, pr *probeResult) error {
	if _, err := os.Stat(dir); err != nil {
		return err
	}
	log, err := pubsub.OpenLogStore(dir)
	if err != nil {
		return err
	}
	defer log.Close()
	cur := log.Cursor(subjectLogOT, 0)
	var bytes int64
	start := time.Now()
	for {
		msgs, err := cur.Next(1)
		if err != nil {
			return err
		}
		if len(msgs) == 0 {
			break
		}
		bytes += int64(len(msgs[0].Data))
	}
	if el := time.Since(start).Seconds(); el > 0 {
		pr.logReadMBPerS = float64(bytes) / 1e6 / el
	}
	return nil
}
