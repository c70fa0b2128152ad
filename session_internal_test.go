package ebv

import (
	"context"
	"errors"
	"testing"
)

// TestSessionApplyOnClosedDeployment closes the deployment under an open
// session, the state a batch is in when Close lands between its admission
// and its swap: Apply must fail with ErrSessionClosed, as Run does, not
// with the deployment's own error.
func TestSessionApplyOnClosedDeployment(t *testing.T) {
	g, err := NewGraph(4, []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewPipeline(FromGraph(g), Subgraphs(2)).Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.dep.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = s.Apply(context.Background(), []Mutation{{Op: OpInsert, Src: 3, Dst: 0}})
	if !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Apply on a closed deployment: err = %v, want ErrSessionClosed", err)
	}
}
