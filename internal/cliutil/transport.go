package cliutil

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"genomeatscale/internal/bsp"
	"genomeatscale/internal/bsp/tcptransport"
	"genomeatscale/internal/core"
	"genomeatscale/internal/dist"
)

// TransportFlags binds the multi-process transport flags: -transport
// selects the BSP message layer (the default in-process runtime, or one
// TCP rank of a multi-process job), and -rank/-peers/-step-timeout
// configure the TCP endpoint.
type TransportFlags struct {
	Transport   *string
	Rank        *int
	Peers       *string
	StepTimeout *time.Duration
}

// BindTransport registers the transport flags on fs.
func BindTransport(fs *flag.FlagSet) *TransportFlags {
	return &TransportFlags{
		Transport:   fs.String("transport", "mem", "BSP transport: mem (in-process virtual ranks) or tcp (this process is one rank of a multi-process job; see -rank and -peers)"),
		Rank:        fs.Int("rank", 0, "with -transport tcp: this process's rank in [0, len(peers))"),
		Peers:       fs.String("peers", "", "with -transport tcp: comma-separated host:port listen addresses of ALL ranks, rank order; entry -rank is this process's own listen address"),
		StepTimeout: fs.Duration("step-timeout", 30*time.Second, "with -transport tcp: per-superstep exchange deadline; a rank silent past it is declared failed"),
	}
}

// TCP reports whether -transport selected the TCP backend.
func (f *TransportFlags) TCP() bool { return *f.Transport == "tcp" }

// Root reports whether this process assembles the result matrices: always
// true in-process, rank 0 only over TCP.
func (f *TransportFlags) Root() bool { return !f.TCP() || *f.Rank == 0 }

// Setup resolves the transport flags into opts: for -transport tcp it
// builds the endpoint — deriving Procs from the peer list, which must
// agree across every process of the job — and returns a closer the caller
// must invoke once the run is over. For -transport mem it validates that
// no TCP-only flag was passed and returns a no-op closer.
func (f *TransportFlags) Setup(opts *core.Options) (func() error, error) {
	noop := func() error { return nil }
	switch *f.Transport {
	case "mem":
		if *f.Peers != "" {
			return nil, fmt.Errorf("-peers needs -transport tcp")
		}
		if *f.Rank != 0 {
			return nil, fmt.Errorf("-rank needs -transport tcp")
		}
		return noop, nil
	case "tcp":
		peers := strings.Split(*f.Peers, ",")
		for i, p := range peers {
			peers[i] = strings.TrimSpace(p)
			if peers[i] == "" {
				return nil, fmt.Errorf("-peers entry %d is empty", i)
			}
		}
		if len(peers) < 2 {
			return nil, fmt.Errorf("-transport tcp needs at least two -peers addresses, got %d", len(peers))
		}
		rank := *f.Rank
		if rank < 0 || rank >= len(peers) {
			return nil, fmt.Errorf("-rank %d outside the peer list [0, %d)", rank, len(peers))
		}
		t, err := tcptransport.New(rank, peers, dist.NewWireCodec(),
			tcptransport.Options{StepTimeout: *f.StepTimeout})
		if err != nil {
			return nil, err
		}
		opts.Transport = t
		opts.Procs = len(peers)
		opts.SetExplicit(core.FieldProcs)
		return t.Close, nil
	default:
		return nil, fmt.Errorf("unknown -transport %q (want mem or tcp)", *f.Transport)
	}
}

// PrintComm reports a run's BSP communication accounting and — for runs
// over a remote transport — the wire-level counters beneath it. It prints
// nothing for local (single-process, no transport) runs.
func PrintComm(w io.Writer, s *core.RunStats) {
	if s.Comm != nil {
		fmt.Fprintf(w, "communication: %d supersteps, %.2f MiB total\n",
			s.Comm.Supersteps, float64(s.Comm.TotalBytes)/(1<<20))
	}
	printTransport(w, s.Transport)
}

func printTransport(w io.Writer, t *bsp.TransportStats) {
	if t == nil {
		return
	}
	fmt.Fprintf(w, "transport: %d dials (%d retries), %.2f MiB sent / %.2f MiB received on the wire, max superstep exchange %.3fs\n",
		t.Dials, t.Retries, float64(t.BytesSent)/(1<<20), float64(t.BytesRecv)/(1<<20), t.MaxStepSeconds)
}
