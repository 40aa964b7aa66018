package train

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ccube/internal/des"
	"ccube/internal/dnn"
)

// iterSummary is the part of a Result a concurrent run must reproduce.
type iterSummary struct {
	IterTime, CommTime, Turnaround, Bubbles des.Time
	PerGPU                                  []des.Time
}

func summarize(res *Result) iterSummary {
	return iterSummary{res.IterTime, res.CommTime, res.Turnaround, res.Bubbles, res.PerGPU}
}

// TestConcurrentIterationsMatchSerial runs CC and DDP iterations from
// several goroutines over one graph, as the server's workers do: they
// share its schedules through DefaultCache, starting cold, and each
// result matches the same iteration run serially on another graph.
func TestConcurrentIterationsMatchSerial(t *testing.T) {
	type job struct {
		name string
		cfg  Config
		ddp  bool
	}
	var jobs []job
	for _, m := range []dnn.Model{dnn.ZFNet(), dnn.ResNet50(), dnn.BERTBase()} {
		for _, batch := range []int{16, 64} {
			cfg := Config{Model: m, Batch: batch, Mode: ModeCC}
			jobs = append(jobs,
				job{fmt.Sprintf("CC/%s/b%d", m.Name, batch), cfg, false},
				job{fmt.Sprintf("DDP/%s/b%d", m.Name, batch), cfg, true})
		}
	}
	iterate := func(j job, cfg Config) (*Result, error) {
		if j.ddp {
			return RunBackwardOverlapCtx(context.Background(), cfg)
		}
		return RunCtx(context.Background(), cfg)
	}

	serialGraph := dgx1()
	want := make([]iterSummary, len(jobs))
	for i, j := range jobs {
		cfg := j.cfg
		cfg.Graph = serialGraph
		res, err := iterate(j, cfg)
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		want[i] = summarize(res)
	}

	shared := dgx1()
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers*len(jobs))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range jobs {
				i := (k + w*len(jobs)/workers) % len(jobs) // each worker starts elsewhere
				cfg := jobs[i].cfg
				cfg.Graph = shared
				res, err := iterate(jobs[i], cfg)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", jobs[i].name, err)
					continue
				}
				if got := summarize(res); !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("%s: concurrent %+v, serial %+v", jobs[i].name, got, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
