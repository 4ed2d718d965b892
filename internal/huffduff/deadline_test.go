package huffduff

import (
	"context"
	"errors"
	"testing"

	"github.com/huffduff/huffduff/internal/faults"
	"github.com/huffduff/huffduff/internal/models"
)

// TestSolveStageHonorsCancel checks that the job context bounds the solve:
// a context cancelled just as the solve stage begins must stop the attack
// in that stage, with an error wrapping context.Canceled, and no later
// stage may run — not even the robust pipeline's noise-tolerant
// re-collection, which a failed solve otherwise triggers.
func TestSolveStageHonorsCancel(t *testing.T) {
	for name, cfg := range map[string]Config{"default": DefaultConfig(), "robust": DefaultRobustConfig()} {
		t.Run(name, func(t *testing.T) {
			m, _ := deployVictim(t, models.SmallCNN(), 0.5)
			cfg.Probe.Trials, cfg.Probe.Q = 2, 6
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var after []string
			solving := false
			cfg.Progress = func(stage string, done, total int) {
				if solving {
					after = append(after, stage)
				}
				if stage == "solve" {
					solving = true
					cancel()
				}
			}
			res, err := AttackContext(ctx, m, cfg)
			if err == nil {
				t.Fatalf("attack completed despite a cancelled solve: %+v", res.Probe)
			}
			if stage, ok := faults.StageOf(err); !ok || stage != "solve" {
				t.Fatalf("error stage = %q (%v), want solve: %v", stage, ok, err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error does not wrap context.Canceled: %v", err)
			}
			if len(after) > 0 {
				t.Fatalf("stages %v ran after the cancel", after)
			}
		})
	}
}

// TestSolveContextStopsOnDoneContext checks SolveContext directly on
// collected data: a live context solves like Solve, a done one returns its
// error.
func TestSolveContextStopsOnDoneContext(t *testing.T) {
	m, _ := deployVictim(t, models.SmallCNN(), 0.5)
	cfg := DefaultConfig()
	cfg.Probe.Trials, cfg.Probe.Q = 2, 6
	res, err := Attack(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := res.Data.SolveContext(context.Background(), 2)
	if err != nil || !SameGeometry(pr, res.Probe) || pr.Sym.Exprs != res.Probe.Sym.Exprs {
		t.Fatalf("SolveContext with a live context differs from the attack's solve (err %v)", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-ctx.Done()
	if _, err := res.Data.SolveContext(ctx, 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SolveContext past its deadline returned %v, want context.DeadlineExceeded", err)
	}
}
