//go:build kregretfault

package chaos

import (
	"context"
	"flag"
	"fmt"
	"testing"
	"time"
)

// The soak is seed-swept by default and replayable by flag:
//
//	make test-chaos                                     # 20 seeds
//	go test -race -tags kregretfault ./internal/chaos \
//	    -chaos.seed 1337 -chaos.runs 1                  # replay one
var (
	chaosSeed     = flag.Int64("chaos.seed", 1, "first soak seed; each run uses seed, seed+1, ...")
	chaosRuns     = flag.Int("chaos.runs", 20, "number of consecutive seeds to soak")
	chaosDuration = flag.Duration("chaos.duration", 250*time.Millisecond, "wall-clock floor per soak run (every client always finishes one full script pass)")
)

// TestChaosSoak runs the full seeded storm once per seed. Every seed
// is its own subtest so a violation names the exact replay command.
// A sweep of at least the default 20 seeds must also see every
// durability site in the catalog fire; a shorter replay arms only part
// of the catalog.
func TestChaosSoak(t *testing.T) {
	fired := map[string]int{}
	for i := 0; i < *chaosRuns; i++ {
		seed := *chaosSeed + int64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rep, err := Run(context.Background(), Config{
				Seed:     seed,
				Duration: *chaosDuration,
				Dir:      t.TempDir(),
			})
			if err != nil {
				t.Fatalf("soak violated invariants (replay: go test -race -tags kregretfault ./internal/chaos -chaos.seed %d -chaos.runs 1):\n%v",
					seed, err)
			}
			if rep.Issued == 0 || rep.OK == 0 {
				t.Fatalf("soak issued %d requests with %d clean answers — the storm starved the load", rep.Issued, rep.OK)
			}
			for site, n := range rep.Fired {
				fired[site] += n
			}
			t.Logf("seed %d: issued=%d ok=%d degraded=%d shed=%d canceled=%d numerical=%d mutations=%d mutfail=%d retries=%d rescued=%d watchdog=%d epoch=%d drain=%v fired=%v",
				seed, rep.Issued, rep.OK, rep.Degraded, rep.Shed, rep.Canceled, rep.Numerical,
				rep.Mutations, rep.MutationsFailed,
				rep.Stats.Retries, rep.Stats.RetrySuccesses, rep.Stats.WatchdogStuck, rep.Stats.Epoch, rep.Stats.DrainDuration,
				rep.Fired)
		})
	}
	if *chaosRuns < 20 {
		return
	}
	for _, site := range durabilitySites {
		if fired[site] == 0 {
			t.Errorf("durability site %s never fired across seeds %d..%d: the soak did not exercise it",
				site, *chaosSeed, *chaosSeed+int64(*chaosRuns)-1)
		}
	}
	t.Logf("durability fires across %d seeds: %v", *chaosRuns, fired)
}
