// Transactions: the §8.5 application — distributed transactions using
// two-phase locking over NetChain locks vs ZooKeeper-style locks, swept
// across contention levels. Each transaction try-locks ten keys (one from
// a hot set sized 1/contention-index), executes 100 µs, and releases.
// This is Fig. 11 in miniature, run on the deterministic simulator.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"netchain/internal/experiments"
)

func main() {
	if err := run(os.Stdout, experiments.Fig11Opts{
		ContentionIndexes: []float64{0.01, 0.1, 1},
		Clients:           []int{1, 10},
		ColdKeys:          500,
		NetChainWindow:    10 * time.Millisecond,
		ZKWindow:          500 * time.Millisecond,
	}); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer, opts experiments.Fig11Opts) error {
	fig, err := experiments.Fig11(opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, fig.Format())
	fmt.Fprintln(out, "shape to observe: NetChain sustains orders of magnitude more")
	fmt.Fprintln(out, "transactions/s than the server-based baseline; both fall as the")
	fmt.Fprintln(out, "contention index approaches 1 (every transaction fights for one")
	fmt.Fprintln(out, "hot lock), where extra clients stop helping.")
	return nil
}
