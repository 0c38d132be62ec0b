package otif_test

import (
	"context"
	"errors"
	"testing"

	"otif"
)

func TestIngestSessionEndToEnd(t *testing.T) {
	pipe, _ := pipeline(t)
	sess, err := pipe.Ingest(context.Background(),
		otif.WithCameras(2), otif.WithCameraClips(2), otif.WithStreamClipSeconds(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	st := sess.Stats()
	if st.ClipsIngested != 4 || st.ClipsDropped != 0 {
		t.Fatalf("stats = %+v, want 4 ingested", st)
	}
	if len(st.Cameras) != 2 || st.Cameras[0].Name != "caldot1-cam0" {
		t.Fatalf("camera stats = %+v", st.Cameras)
	}
	if got := sess.Store().Clips(); got != 4 {
		t.Fatalf("store clips = %d, want 4", got)
	}
	if got := len(sess.Published()); got != 4 {
		t.Fatalf("published log has %d entries, want 4", got)
	}

	ts := sess.Tracks()
	if got := len(ts.CountTracks("car")); got != 4 {
		t.Fatalf("TrackSet has %d clips, want 4", got)
	}
	if ts.Runtime <= 0 {
		t.Error("TrackSet runtime not carried over from session")
	}
	// The TrackSet adopts the live store's already-built index rather than
	// rebuilding it.
	if ts.Index() != sess.Store() {
		t.Error("TrackSet.Index rebuilt the index instead of adopting the live store snapshot")
	}
}

func TestIngestRequiresTraining(t *testing.T) {
	pipe, err := otif.Open("caldot1", otif.Options{ClipsPerSet: 1, ClipSeconds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Ingest(context.Background()); !errors.Is(err, otif.ErrNotTrained) {
		t.Fatalf("Ingest before Train = %v, want ErrNotTrained", err)
	}
}

// TestKnobOptionsOnOpen pins that knobs passed to OpenWith are applied:
// the worker count changes, and a cache budget installed over a disabled
// cache serves the frame reads OpenWith makes while estimating the
// background.
func TestKnobOptionsOnOpen(t *testing.T) {
	oldPar := otif.Parallelism()
	defer func() {
		otif.SetParallelism(oldPar)
		otif.SetCacheMB(64)
	}()
	otif.SetCacheMB(0)
	if _, err := otif.OpenWith("caldot1",
		otif.WithClips(1), otif.WithClipSeconds(2),
		otif.WithParallelism(2), otif.WithCacheMB(32)); err != nil {
		t.Fatal(err)
	}
	if got := otif.Parallelism(); got != 2 {
		t.Errorf("Parallelism = %d after WithParallelism(2)", got)
	}
	if st := otif.CacheStats(); st.Misses == 0 {
		t.Errorf("CacheStats = %+v after WithCacheMB(32), want frame reads through the cache", st)
	}
}

// TestKnobOptionsOnIngest pins that a knob passed to Ingest is applied,
// not just accepted: with the cache disabled beforehand, the session's
// WithCacheMB installs a cache that its clip reads go through.
func TestKnobOptionsOnIngest(t *testing.T) {
	pipe, _ := pipeline(t)
	defer otif.SetCacheMB(64)
	otif.SetCacheMB(0)
	sess, err := pipe.Ingest(context.Background(), otif.WithCacheMB(32),
		otif.WithCameraClips(1), otif.WithStreamClipSeconds(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st := otif.CacheStats(); st.Misses == 0 {
		t.Errorf("CacheStats = %+v after Ingest(WithCacheMB(32)), want frame reads through the cache", st)
	}
}
