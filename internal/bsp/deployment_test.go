// Tests for the prepare-once/serve-many Deployment: concurrent jobs over
// shared subgraphs must match isolated runs exactly, and closing the
// deployment must release workers blocked in a collective exchange.
package bsp_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/transport"
)

// TestDeploymentServesManyJobs runs CC, PR and SSSP sequentially on one
// deployment and checks each against an isolated one-shot Run.
func TestDeploymentServesManyJobs(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 4)
	dep, err := bsp.NewDeployment(subs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	progs := []bsp.Program{&apps.CC{}, &apps.PageRank{Iterations: 6}, &apps.SSSP{Source: 0}}
	for _, prog := range progs {
		want, err := bsp.Run(t.Context(), subs, prog, bsp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := dep.Run(context.Background(), prog, bsp.Config{})
		if err != nil {
			t.Fatalf("%s: %v", prog.Name(), err)
		}
		if got.Steps != want.Steps {
			t.Fatalf("%s: steps %d, isolated %d", prog.Name(), got.Steps, want.Steps)
		}
		if !got.Values.EqualValues(want.Values) {
			t.Fatalf("%s: deployment values differ from isolated run", prog.Name())
		}
	}
}

// TestDeploymentConcurrentMixedWidthJobs is the acceptance shape: N
// goroutines run jobs of widths 1, 3 and 8 concurrently on one deployment
// (Mem and the TCP job mux) and every result must be byte-identical to the
// same program's isolated run.
func TestDeploymentConcurrentMixedWidthJobs(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 4)

	feature := func(v uint32, feat []float64) {
		for j := range feat {
			feat[j] = float64((uint64(v)*13 + uint64(j)*7) % 11)
		}
	}
	cases := []struct {
		name  string
		prog  bsp.Program
		width int
	}{
		{"CCw1", &apps.CC{}, 1},
		{"AGGw3", &apps.Aggregate{Layers: 2, Feature: feature}, 3},
		{"AGGw8", &apps.Aggregate{Layers: 2, Feature: feature}, 8},
	}
	// Isolated baselines, one per case.
	want := make([]*bsp.Result, len(cases))
	for i, tc := range cases {
		res, err := bsp.Run(t.Context(), subs, tc.prog, bsp.Config{ValueWidth: tc.width})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	for _, mesh := range []string{"mem", "tcp"} {
		t.Run(mesh, func(t *testing.T) {
			var md transport.Deployment
			if mesh == "tcp" {
				var err error
				md, err = transport.NewTCPMeshDeployment(t.Context(), 4)
				if err != nil {
					t.Fatal(err)
				}
			}
			dep, err := bsp.NewDeployment(subs, md)
			if err != nil {
				t.Fatal(err)
			}
			defer dep.Close()

			const rounds = 3 // 3 cases × 3 rounds = 9 concurrent jobs
			var wg sync.WaitGroup
			errs := make(chan error, len(cases)*rounds)
			for r := 0; r < rounds; r++ {
				for i, tc := range cases {
					wg.Add(1)
					go func(i int, tc struct {
						name  string
						prog  bsp.Program
						width int
					}) {
						defer wg.Done()
						got, err := dep.Run(context.Background(), tc.prog, bsp.Config{ValueWidth: tc.width})
						if err != nil {
							errs <- fmt.Errorf("%s: %w", tc.name, err)
							return
						}
						if got.Steps != want[i].Steps {
							errs <- fmt.Errorf("%s: steps %d, isolated %d", tc.name, got.Steps, want[i].Steps)
							return
						}
						if !got.Values.EqualValues(want[i].Values) {
							errs <- fmt.Errorf("%s: concurrent-job values differ from isolated run", tc.name)
						}
					}(i, tc)
				}
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestDeploymentCloseReleasesBlockedWorkers closes the deployment while a
// never-quiescing job is mid-run: every worker must be released and Run
// must fail with ErrDeploymentClosed in bounded time.
func TestDeploymentCloseReleasesBlockedWorkers(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 4)
	for _, mesh := range []string{"mem", "tcp"} {
		t.Run(mesh, func(t *testing.T) {
			var md transport.Deployment
			if mesh == "tcp" {
				var err error
				md, err = transport.NewTCPMeshDeployment(t.Context(), 4)
				if err != nil {
					t.Fatal(err)
				}
			}
			dep, err := bsp.NewDeployment(subs, md)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := dep.Run(context.Background(), &spinner{}, bsp.Config{MaxSteps: 1 << 30})
				done <- err
			}()
			time.Sleep(20 * time.Millisecond)
			if err := dep.Close(); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if !errors.Is(err, bsp.ErrDeploymentClosed) {
					t.Fatalf("err = %v, want ErrDeploymentClosed", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("Close did not release the blocked workers")
			}
			if _, err := dep.Run(context.Background(), &apps.CC{}, bsp.Config{}); !errors.Is(err, bsp.ErrDeploymentClosed) {
				t.Fatalf("Run after Close: err = %v, want ErrDeploymentClosed", err)
			}
		})
	}
}

// TestDeploymentFailedJobLeavesDeploymentHealthy: a job that dies mid-run
// (fault-injected transport error is impossible here — the deployment owns
// the transports — so use a program returning a malformed batch) must not
// poison the deployment for subsequent jobs.
func TestDeploymentFailedJobLeavesDeploymentHealthy(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 4)
	dep, err := bsp.NewDeployment(subs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if _, err := dep.Run(context.Background(), badWidthProg(), bsp.Config{}); err == nil {
		t.Fatal("malformed-batch job succeeded")
	}
	// The deployment must still serve correct jobs.
	want, err := bsp.Run(t.Context(), subs, &apps.CC{}, bsp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := dep.Run(context.Background(), &apps.CC{}, bsp.Config{})
	if err != nil {
		t.Fatalf("job after a failed job: %v", err)
	}
	if !got.Values.EqualValues(want.Values) {
		t.Fatal("post-failure job values differ from isolated run")
	}
}
