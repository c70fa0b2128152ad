// Command ebv-serve runs the production graph-query service: it prepares
// the configured graphs once (EBV partition → subgraph build → persistent
// BSP deployment) and serves graph queries over HTTP against the cached
// sessions, with bounded-queue admission control, per-request deadlines,
// Prometheus metrics and graceful SIGTERM drain (DESIGN.md §12).
//
// Usage:
//
//	ebv-serve -graph social=graph.txt,k=8,undirected -listen :8080
//	ebv-serve -graph a=a.bin -graph b=b.txt,k=16 -queue 128 -max-concurrent 8
//
// Endpoints: POST /v1/jobs, POST /v1/graphs/{g}/mutations,
// GET /v1/graphs[?stats=1], GET /healthz, GET /metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ebv/internal/serve"
)

// graphFlags collects repeated -graph flags, each
// "name=path[,k=N][,undirected][,policy=NAME][,verify]".
type graphFlags []serve.GraphSpec

func (g *graphFlags) String() string {
	names := make([]string, len(*g))
	for i, gs := range *g {
		names[i] = gs.Name
	}
	return strings.Join(names, ",")
}

func (g *graphFlags) Set(value string) error {
	name, rest, found := strings.Cut(value, "=")
	if !found || name == "" {
		return fmt.Errorf("-graph %q: want name=path[,k=N][,undirected][,policy=NAME][,verify]", value)
	}
	parts := strings.Split(rest, ",")
	if parts[0] == "" {
		return fmt.Errorf("-graph %q: empty path", value)
	}
	gs := serve.GraphSpec{Name: name, Path: parts[0]}
	for _, opt := range parts[1:] {
		switch {
		case opt == "undirected":
			gs.Undirected = true
		case opt == "verify":
			gs.VerifyMutations = true
		case strings.HasPrefix(opt, "k="):
			k, err := strconv.Atoi(opt[2:])
			if err != nil || k < 1 {
				return fmt.Errorf("-graph %q: bad subgraph count %q", value, opt)
			}
			gs.Subgraphs = k
		case strings.HasPrefix(opt, "policy="):
			gs.MutationPolicy = opt[len("policy="):]
		default:
			return fmt.Errorf("-graph %q: unknown option %q", value, opt)
		}
	}
	*g = append(*g, gs)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ebv-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var graphs graphFlags
	flag.Var(&graphs, "graph", "graph to serve: name=path[,k=N][,undirected][,policy=NAME][,verify] (repeatable)")
	var (
		listen        = flag.String("listen", ":8080", "HTTP listen address")
		maxGraphs     = flag.Int("max-graphs", 4, "session-cache capacity (open graphs)")
		queueDepth    = flag.Int("queue", 64, "admitted-job bound (waiting + running); beyond it requests get 429")
		maxConcurrent = flag.Int("max-concurrent", 8, "jobs executing at once across all graphs")
		maxPerGraph   = flag.Int("max-per-graph", 4, "jobs executing at once on one graph")
		jobTimeout    = flag.Duration("job-timeout", 60*time.Second, "per-job deadline cap")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain deadline")
	)
	flag.Parse()
	if len(graphs) == 0 {
		return errors.New("no graphs configured (use -graph name=path)")
	}
	logger := log.New(os.Stderr, "ebv-serve: ", log.LstdFlags)

	// Bind before anything is announced: a bad -listen fails here, and
	// the "serving" line below names the address actually bound (":0").
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}

	// The lifecycle context is deliberately not the signal context:
	// SIGTERM triggers the graceful drain below rather than instantly
	// canceling every in-flight job's supersteps.
	srv, err := serve.New(context.Background(), serve.Config{
		Graphs:        graphs,
		MaxGraphs:     *maxGraphs,
		QueueDepth:    *queueDepth,
		MaxConcurrent: *maxConcurrent,
		MaxPerGraph:   *maxPerGraph,
		JobTimeout:    *jobTimeout,
		Logf:          logger.Printf,
	})
	if err != nil {
		_ = ln.Close() // exiting on err; nothing was served
		return err
	}

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logger.Printf("serving %d graph(s) [%s] on %s (queue %d, %d concurrent, %d per graph)",
		len(graphs), graphs.String(), ln.Addr(), *queueDepth, *maxConcurrent, *maxPerGraph)

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		_ = srv.Shutdown(context.Background())
		return fmt.Errorf("http server: %w", err)
	case <-sigCtx.Done():
	}
	stop() // a second signal kills the process the default way

	// Graceful drain: stop admission, let admitted jobs finish (bounded
	// by -drain-timeout), close every session, then close the listener.
	logger.Printf("signal received; draining (deadline %v)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	shutdownErr := srv.Shutdown(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && shutdownErr == nil {
		shutdownErr = err
	}
	if shutdownErr != nil {
		return fmt.Errorf("shutdown: %w", shutdownErr)
	}
	logger.Printf("drained cleanly")
	return nil
}
