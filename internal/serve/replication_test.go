package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFailoverChaos is the tentpole test: a primary with a live follower is
// killed mid-load (in-process SIGKILL, torn trailing frame on the
// follower's journal), the follower is promoted, and the promoted server
// must serve byte-identical results for every job the primary acknowledged.
func TestFailoverChaos(t *testing.T) {
	primDir, folDir := t.TempDir(), t.TempDir()
	prim, err := Open(Config{Workers: 1, DataDir: primDir, HeartbeatInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(prim.Handler())

	// Pin the single worker on a long job so everything behind it stays
	// queued deterministically — "mid-load" with hundreds in flight.
	pin := tinySpec()
	pin.Iters = 400
	pinJob, err := prim.Submit("t0", pin)
	if err != nil {
		t.Fatal(err)
	}

	const extra = 299
	const distinct = 24
	tenants := []string{"t0", "t1", "t2", "t3"}
	ids := []string{pinJob.ID}
	for i := 0; i < extra; i++ {
		sp := tinySpec()
		sp.Iters = 2 + i%distinct
		j, err := prim.Submit(tenants[i%len(tenants)], sp)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, j.ID)
	}
	if len(ids) < 300 {
		t.Fatalf("only %d acknowledged jobs, want >= 300", len(ids))
	}

	fol, err := OpenFollower(FollowerConfig{
		DataDir:      folDir,
		Primary:      ts.URL,
		Serve:        Config{Workers: 4},
		PollInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Stop() // idempotent; guards the early-Fatal paths
	fts := httptest.NewServer(fol.Handler())
	defer fts.Close()

	// Replication lag must reach zero once the submit burst quiesces: the
	// follower's applied offset catches the primary's synced offset.
	waitFor(t, 30*time.Second, "replication lag 0", func() bool {
		st := fol.Stats()
		return st.Applied > 0 && st.Applied == prim.JournalStats().SyncedBytes
	})

	// While in sync, the follower's readyz is green and its data plane
	// redirects to the primary.
	if resp, err := http.Get(fts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("follower readyz in sync: %v %v", resp.StatusCode, err)
	}
	resp, err := http.Get(fts.URL + "/v1/jobs")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower data plane: got %d, want 503", resp.StatusCode)
	}
	var he httpError
	json.NewDecoder(resp.Body).Decode(&he)
	resp.Body.Close()
	if he.Code != CodeNotPrimary {
		t.Fatalf("follower data plane code %q, want %q", he.Code, CodeNotPrimary)
	}

	// SIGKILL the primary mid-load, then stop the tail and simulate a torn
	// trailing frame on the follower's own journal (a crash cut the last
	// shipped line short). Promotion must count and skip it, nothing more.
	prim.Kill()
	fol.Stop()
	ts.Close()
	jf, err := os.OpenFile(filepath.Join(folDir, JournalName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	jf.WriteString(`{"v":1,"rec":"comple`)
	jf.Close()

	s2, err := fol.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	if again, err := fol.Promote(); err != nil || again != s2 {
		t.Fatalf("second promote: (%p, %v), want idempotent (%p, nil)", again, err, s2)
	}
	rec := s2.Recovery()
	if rec.Reenqueued != extra+1 {
		t.Errorf("promoted server reenqueued %d jobs, want %d", rec.Reenqueued, extra+1)
	}
	if rec.TornRecords < 1 {
		t.Errorf("torn records %d, want >= 1", rec.TornRecords)
	}

	// The follower's handler now delegates fully to the promoted server.
	if resp, err := http.Get(fts.URL + "/v1/jobs"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("promoted data plane via follower handler: %d %v", resp.StatusCode, err)
	}

	// Zero acknowledged jobs lost: every ID the primary acked exists on the
	// promoted server and completes.
	results := map[string][]byte{} // spec hash -> result bytes
	for _, id := range ids {
		j, ok := s2.Job(id)
		if !ok {
			t.Fatalf("acknowledged job %s lost in failover", id)
		}
		if st := j.Wait(); st != StateDone {
			t.Fatalf("failed-over job %s ended %q: %s", id, st, j.status(false).Error)
		}
		st := j.status(false)
		if !st.Recovered {
			t.Errorf("job %s not flagged recovered", id)
		}
		res, _ := j.Result()
		if prev, ok := results[st.SpecHash]; ok && !bytes.Equal(prev, res) {
			t.Fatalf("job %s: same spec hash, different result bytes", id)
		}
		results[st.SpecHash] = res
	}

	// Byte-identity against a never-crashed reference server.
	ref := NewServer(Config{Workers: 4})
	defer ref.Drain()
	for i := 0; i < distinct; i++ {
		sp := tinySpec()
		sp.Iters = 2 + i
		j, err := ref.Submit("ref", sp)
		if err != nil {
			t.Fatal(err)
		}
		j.Wait()
		res, _ := j.Result()
		want, ok := results[j.Hash]
		if !ok {
			t.Fatalf("reference spec hash %s missing from failed-over set", j.Hash)
		}
		if !bytes.Equal(res, want) {
			t.Fatalf("failed-over result for %s differs from uncrashed reference", j.Hash)
		}
	}
}

// TestFollowerAntiEntropy: a follower joining after the primary has already
// completed work catches up through the snapshot + manifest path and mirrors
// the spilled artifacts byte-for-byte.
func TestFollowerAntiEntropy(t *testing.T) {
	primDir, folDir := t.TempDir(), t.TempDir()
	prim, err := Open(Config{Workers: 2, DataDir: primDir, HeartbeatInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		sp := tinySpec()
		sp.Iters = 3 + i
		j, err := prim.Submit("alice", sp)
		if err != nil {
			t.Fatal(err)
		}
		if st := j.Wait(); st != StateDone {
			t.Fatalf("job ended %q", st)
		}
	}
	ts := httptest.NewServer(prim.Handler())
	defer ts.Close()

	// Late joiner: its from=0 offset is valid, so it tails from the start;
	// pre-existing artifacts arrive via the connect-time manifest diff.
	fol, err := OpenFollower(FollowerConfig{
		DataDir: folDir, Primary: ts.URL,
		Serve: Config{Workers: 2}, PollInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Stop() // idempotent; ts.Close would block on a live stream
	waitFor(t, 15*time.Second, "follower catch-up", func() bool {
		js := prim.JournalStats()
		st := fol.Stats()
		// Size == SyncedBytes rules out terminal records still waiting in the
		// group-commit window; only then is Applied == Size full catch-up.
		return js.Size > 0 && js.SyncedBytes == js.Size && st.Applied == js.Size &&
			len(fol.store.manifest()) == len(prim.store.manifest())
	})
	if st := fol.Stats(); st.Repairs < 4 {
		t.Errorf("anti-entropy repairs %d, want >= 4 (results spilled before the follower joined)", st.Repairs)
	}

	// Journal prefix and every artifact are byte-identical across the pair.
	pj, _ := os.ReadFile(filepath.Join(primDir, JournalName))
	fj, _ := os.ReadFile(filepath.Join(folDir, JournalName))
	if !bytes.Equal(pj, fj) {
		t.Fatalf("follower journal differs from primary (%d vs %d bytes)", len(fj), len(pj))
	}
	for _, a := range prim.store.manifest() {
		pb, err1 := prim.store.readArtifact(a.Kind, a.Hash)
		fb, err2 := fol.store.readArtifact(a.Kind, a.Hash)
		if err1 != nil || err2 != nil || !bytes.Equal(pb, fb) {
			t.Fatalf("artifact %s/%s differs across replicas (%v, %v)", a.Kind, a.Hash, err1, err2)
		}
	}

	prim.Kill()
	fol.Stop()
	ts.Close()
	s2, err := fol.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	// Promoted with nothing in flight: all four jobs restore terminal and
	// re-serve from the mirrored spill without an engine run.
	if rec := s2.Recovery(); rec.Completed != 4 || rec.Reenqueued != 0 || rec.ResultsRehydrated != 4 {
		t.Errorf("promoted recovery %+v, want 4 completed, 0 reenqueued, 4 rehydrated", rec)
	}
}

// TestReplicationEpochResync: compacting the primary's journal invalidates
// follower offsets; the follower must detect the epoch change, snapshot, and
// converge on the new lineage.
func TestReplicationEpochResync(t *testing.T) {
	primDir, folDir := t.TempDir(), t.TempDir()
	prim, err := Open(Config{Workers: 2, DataDir: primDir, HeartbeatInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	runOne := func(iters int) {
		sp := tinySpec()
		sp.Iters = iters
		j, err := prim.Submit("alice", sp)
		if err != nil {
			t.Fatal(err)
		}
		if st := j.Wait(); st != StateDone {
			t.Fatalf("job ended %q", st)
		}
	}
	runOne(3)
	ts := httptest.NewServer(prim.Handler())
	defer ts.Close()
	fol, err := OpenFollower(FollowerConfig{
		DataDir: folDir, Primary: ts.URL,
		Serve: Config{Workers: 2}, PollInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Stop()
	waitFor(t, 15*time.Second, "initial sync", func() bool {
		st := fol.Stats()
		return st.Applied > 0 && st.Applied == prim.JournalStats().SyncedBytes
	})

	if err := prim.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	runOne(4)
	waitFor(t, 15*time.Second, "post-compaction resync", func() bool {
		st, pst := fol.Stats(), prim.JournalStats()
		return st.Epoch == pst.Epoch && pst.SyncedBytes == pst.Size && st.Applied == pst.SyncedBytes
	})
	st := fol.Stats()
	if st.Snapshots < 1 {
		t.Errorf("snapshots %d, want >= 1 (epoch change forces a resync)", st.Snapshots)
	}
	pj, _ := os.ReadFile(filepath.Join(primDir, JournalName))
	fj, _ := os.ReadFile(filepath.Join(folDir, JournalName))
	if !bytes.Equal(pj, fj) {
		t.Fatalf("journals diverged after compaction resync (%d vs %d bytes)", len(fj), len(pj))
	}
}

// FuzzReplicationFrameDecode: arbitrary stream bytes — torn, duplicated,
// reordered, garbage — must never panic the follower or corrupt its local
// journal: the file stays line-aligned and exactly applied-offset long.
func FuzzReplicationFrameDecode(f *testing.F) {
	mk := func(fr repFrame) []byte {
		b, _ := json.Marshal(fr)
		return append(b, '\n')
	}
	rec := json.RawMessage(`{"v":1,"rec":"submitted","job":"j1","tenant":"t","spec_hash":"h","spec":{"iters":3}}`)
	f.Add(mk(repFrame{V: 1, T: frameRec, Epoch: 1, Off: 0, Rec: rec, Synced: int64(len(rec) + 1)}))
	f.Add(mk(repFrame{V: 1, T: frameHB, Epoch: 1, Synced: 99}))
	f.Add(mk(repFrame{V: 1, T: frameRec, Epoch: 1, Off: 500, Rec: rec})) // gap
	f.Add(mk(repFrame{V: 1, T: frameArt, Epoch: 1, Kind: "result", Hash: "zz", B64: "!!!not base64"}))
	f.Add([]byte("{\"v\":1,\"t\":\"rec\",\"off\":0,\"rec_b64\":\"bm90IGpzb24=\"}\n"))
	f.Add([]byte("\x00\xfftorn garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		fol, err := newFollowerCore(FollowerConfig{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer fol.jf.Close()
		for _, line := range bytes.SplitAfter(data, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			// Errors (gap, epoch change) only mean "reconnect"; state must
			// stay consistent regardless.
			fol.ingestFrame(line)
		}
		st := fol.Stats()
		jp := filepath.Join(dir, JournalName)
		fi, err := os.Stat(jp)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != st.Applied {
			t.Fatalf("journal %d bytes but applied offset %d", fi.Size(), st.Applied)
		}
		got, _ := os.ReadFile(jp)
		if len(got) > 0 && got[len(got)-1] != '\n' {
			t.Fatal("follower journal not line-aligned")
		}
		// The incremental fold matches a from-scratch replay of the file.
		rp := replayJournal(got)
		if len(rp.order) != st.JobsFolded {
			t.Fatalf("incremental fold has %d jobs, replay has %d", st.JobsFolded, len(rp.order))
		}
	})
}

// TestLeaseFailover drives the lease protocol through its failover
// scenarios, including the two races that matter: simultaneous promotion
// (exactly one winner) and a stale primary rejoining after its lease was
// stolen (refresh must fail so it demotes).
func TestLeaseFailover(t *testing.T) {
	type env struct {
		now  time.Time
		a, b *lease // two replicas sharing one lease file
	}
	mkEnv := func(t *testing.T) *env {
		e := &env{now: time.Unix(1000, 0)}
		path := filepath.Join(t.TempDir(), "lease.json")
		clock := func() time.Time { return e.now }
		e.a = newLease(path, 2*time.Second, clock)
		e.b = newLease(path, 2*time.Second, clock)
		return e
	}
	mustAcquire := func(t *testing.T, l *lease, holder string, want bool) {
		t.Helper()
		ok, err := l.acquire(holder)
		if err != nil || ok != want {
			t.Fatalf("acquire(%s) = (%v, %v), want %v", holder, ok, err, want)
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T, e *env)
	}{
		{"fresh acquire succeeds", func(t *testing.T, e *env) {
			mustAcquire(t, e.a, "a", true)
		}},
		{"live holder blocks a peer", func(t *testing.T, e *env) {
			mustAcquire(t, e.a, "a", true)
			e.now = e.now.Add(time.Second) // within ttl
			mustAcquire(t, e.b, "b", false)
		}},
		{"reacquiring own lease is free", func(t *testing.T, e *env) {
			mustAcquire(t, e.a, "a", true)
			mustAcquire(t, e.a, "a", true)
		}},
		{"expired lease is stolen", func(t *testing.T, e *env) {
			mustAcquire(t, e.a, "a", true)
			e.now = e.now.Add(3 * time.Second) // past ttl: a is presumed dead
			mustAcquire(t, e.b, "b", true)
		}},
		{"stale primary must demote after theft", func(t *testing.T, e *env) {
			mustAcquire(t, e.a, "a", true)
			e.now = e.now.Add(3 * time.Second)
			mustAcquire(t, e.b, "b", true)
			// a wakes from its pause and tries to re-stamp: the holder
			// changed, so refresh fails — a is no longer primary.
			ok, err := e.a.refresh("a")
			if err != nil || ok {
				t.Fatalf("stale refresh = (%v, %v), want (false, nil)", ok, err)
			}
		}},
		{"simultaneous promote has one winner", func(t *testing.T, e *env) {
			mustAcquire(t, e.a, "a", true)
			e.now = e.now.Add(3 * time.Second)
			// Both stealers write before either confirms; the last rename
			// wins and both re-read the same winner.
			if err := e.a.write("a2"); err != nil {
				t.Fatal(err)
			}
			if err := e.b.write("b2"); err != nil {
				t.Fatal(err)
			}
			ra, _ := e.a.read()
			rb, _ := e.b.read()
			if ra.Holder != rb.Holder {
				t.Fatalf("replicas read different winners: %q vs %q", ra.Holder, rb.Holder)
			}
			if got := ra.Holder; got != "b2" {
				t.Fatalf("winner %q, want the last writer b2", got)
			}
		}},
		{"release frees the lease immediately", func(t *testing.T, e *env) {
			mustAcquire(t, e.a, "a", true)
			e.a.release("a")
			mustAcquire(t, e.b, "b", true) // no ttl wait
		}},
		{"release by a non-holder is a no-op", func(t *testing.T, e *env) {
			mustAcquire(t, e.a, "a", true)
			e.b.release("b")
			mustAcquire(t, e.b, "b", false) // a still holds
		}},
		{"corrupt lease file counts as free", func(t *testing.T, e *env) {
			if err := os.WriteFile(e.a.path, []byte("not json{"), 0o644); err != nil {
				t.Fatal(err)
			}
			mustAcquire(t, e.b, "b", true)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, mkEnv(t)) })
	}
}

// copyTree mirrors a data directory for before/after comparisons.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		q := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(q, 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(q, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCompactionPreservesRecovery pins the compaction contract: recovering
// from a compacted data directory yields exactly the jobs, states, result
// bytes, and quota accounting that the uncompacted directory yields.
func TestCompactionPreservesRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers: 1, DataDir: dir,
		TenantQuota: Quota{SubmitRate: 0.001, SubmitBurst: 50, MaxStoredBytes: 1 << 30},
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, tenant := range []string{"alice", "alice", "bob", "bob", "carol"} {
		sp := tinySpec()
		sp.Iters = 3 + i
		j, err := s.Submit(tenant, sp)
		if err != nil {
			t.Fatal(err)
		}
		if st := j.Wait(); st != StateDone {
			t.Fatalf("job ended %q", st)
		}
	}
	// Leave work in flight so compaction must preserve live-job records:
	// pin the worker, queue two more, kill.
	pin := tinySpec()
	pin.Iters = 400
	if _, err := s.Submit("dave", pin); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		sp := tinySpec()
		sp.Iters = 30 + i
		if _, err := s.Submit("erin", sp); err != nil {
			t.Fatal(err)
		}
	}
	s.Kill()

	cdir := t.TempDir()
	copyTree(t, dir, cdir)
	before, after, err := CompactDataDir(cdir)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("compaction grew the journal: %d -> %d bytes", before, after)
	}
	if e1, e2 := readEpochFile(filepath.Join(dir, JournalName)), readEpochFile(filepath.Join(cdir, JournalName)); e2 <= e1 {
		t.Errorf("compaction did not bump the epoch: %d -> %d", e1, e2)
	}

	type snap struct {
		states  map[string]State
		results map[string][]byte
		stored  int64
		tokens  float64
	}
	boot := func(d string) snap {
		c := cfg
		c.DataDir = d
		c.Workers = 4
		s, err := Open(c)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Drain()
		out := snap{states: map[string]State{}, results: map[string][]byte{}}
		for _, st := range s.Jobs("") {
			j, _ := s.Job(st.ID)
			state := j.Wait()
			out.states[j.ID] = state
			if state == StateDone {
				res, _ := j.Result()
				out.results[j.ID] = res
			}
		}
		out.stored = s.quotas.storedBytesTotal()
		out.tokens, _, _ = s.quotas.snapshot("alice", s.now())
		return out
	}
	plain, compacted := boot(dir), boot(cdir)

	if len(plain.states) != len(compacted.states) {
		t.Fatalf("job count differs: %d uncompacted vs %d compacted", len(plain.states), len(compacted.states))
	}
	for id, st := range plain.states {
		if compacted.states[id] != st {
			t.Errorf("job %s: state %q uncompacted vs %q compacted", id, st, compacted.states[id])
		}
		if !bytes.Equal(plain.results[id], compacted.results[id]) {
			t.Errorf("job %s: result bytes differ across compaction", id)
		}
	}
	if plain.stored != compacted.stored {
		t.Errorf("stored bytes differ: %d uncompacted vs %d compacted", plain.stored, compacted.stored)
	}
	if plain.tokens != compacted.tokens {
		t.Errorf("alice's token fill differs: %v uncompacted vs %v compacted", plain.tokens, compacted.tokens)
	}
}

// TestAutoCompaction: with CompactBytes set, the journal self-compacts under
// sustained load and stays correct (every job still terminal and servable).
func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Workers: 2, DataDir: dir, CompactBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		sp := tinySpec()
		sp.Iters = 2 + i%6
		j, err := s.Submit("t", sp)
		if err != nil {
			t.Fatal(err)
		}
		j.Wait()
	}
	waitFor(t, 15*time.Second, "auto compaction", func() bool {
		return s.rep.compactions.Load() >= 1 && !s.compactBusy.Load()
	})
	s.Drain()

	s2, err := Open(Config{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	if got := len(s2.Jobs("")); got != 40 {
		t.Fatalf("recovered %d jobs after auto-compaction, want 40", got)
	}
	for _, st := range s2.Jobs("") {
		j, _ := s2.Job(st.ID)
		if state := j.Wait(); state != StateDone {
			t.Errorf("job %s ended %q after compacted recovery", j.ID, state)
		}
	}
}

// TestQuotaPersistence: token-bucket fill and stored-bytes accounting
// survive a restart within one refill interval — a tenant cannot reset its
// budget by crashing the server, and restarts do not double-count spills.
func TestQuotaPersistence(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers: 2, DataDir: dir,
		// Near-zero refill rate: the bucket only moves when submits spend it,
		// so before/after comparisons are exact.
		TenantQuota: Quota{SubmitRate: 0.0001, SubmitBurst: 50, MaxStoredBytes: 1 << 30},
	}
	s1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sp := tinySpec()
		sp.Iters = 3 + i
		j, err := s1.Submit("alice", sp)
		if err != nil {
			t.Fatal(err)
		}
		if st := j.Wait(); st != StateDone {
			t.Fatalf("job ended %q", st)
		}
	}
	tok1, stored1, _ := s1.quotas.snapshot("alice", s1.now())
	if tok1 > 41 { // 50 burst - 10 spent (+ negligible refill)
		t.Fatalf("token fill %v after 10 submits, want ~40", tok1)
	}
	if stored1 <= 0 {
		t.Fatal("no stored bytes accrued for alice")
	}
	s1.Drain()

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tok2, stored2, _ := s2.quotas.snapshot("alice", s2.now())
	if diff := tok2 - tok1; diff < 0 || diff > 1 {
		t.Errorf("token fill after restart %v, want %v (within one refill)", tok2, tok1)
	}
	if stored2 != stored1 {
		t.Errorf("stored bytes after restart %d, want %d (no double-count)", stored2, stored1)
	}
	if s2.Recovery().QuotaTenants < 1 {
		t.Errorf("recovery reseeded %d quota tenants, want >= 1", s2.Recovery().QuotaTenants)
	}

	// Re-running the same specs re-spills over the same content-addressed
	// paths; the putResult delta contract keeps the totals flat.
	for i := 0; i < 10; i++ {
		sp := tinySpec()
		sp.Iters = 3 + i
		j, err := s2.Submit("alice", sp)
		if err != nil {
			t.Fatal(err)
		}
		j.Wait()
	}
	_, stored3, _ := s2.quotas.snapshot("alice", s2.now())
	if stored3 != stored1 {
		t.Errorf("stored bytes after cache-hit resubmits %d, want %d", stored3, stored1)
	}
	s2.Drain()

	// A third boot sees the same totals again (max of journal and disk scan,
	// not their sum).
	s3, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Drain()
	_, stored4, _ := s3.quotas.snapshot("alice", s3.now())
	if stored4 != stored1 {
		t.Errorf("stored bytes after second restart %d, want %d", stored4, stored1)
	}
}

// TestServerLeaseLoss: a primary whose lease is stolen mid-flight learns it
// at the next refresh and signals LeaseLost.
func TestServerLeaseLoss(t *testing.T) {
	dir := t.TempDir()
	leasePath := filepath.Join(t.TempDir(), "lease.json")
	s, err := Open(Config{
		Workers: 1, DataDir: dir,
		LeasePath: leasePath, LeaseTTL: 90 * time.Millisecond, LeaseID: "prim",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()

	// A second primary on the same lease must be refused while prim is live.
	if _, err := Open(Config{Workers: 1, DataDir: t.TempDir(), LeasePath: leasePath, LeaseTTL: 90 * time.Millisecond, LeaseID: "usurper"}); err == nil {
		t.Fatal("second Open acquired a live lease")
	} else if !strings.Contains(err.Error(), "prim") {
		t.Fatalf("lease refusal should name the holder: %v", err)
	}

	// Steal the lease out from under it (what a promoted standby does after
	// the ttl) and wait for the refresher to notice.
	thief := newLease(leasePath, 90*time.Millisecond, time.Now)
	if err := thief.write("standby"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.LeaseLost():
	case <-time.After(5 * time.Second):
		t.Fatal("LeaseLost not signalled after the lease was stolen")
	}
}

// TestFollowerReadyzNotReady: a follower that cannot reach its primary
// reports not ready, with the structured code.
func TestFollowerReadyzNotReady(t *testing.T) {
	fol, err := OpenFollower(FollowerConfig{
		DataDir: t.TempDir(), Primary: "http://127.0.0.1:1", // nothing listens
		PollInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Stop()
	ts := httptest.NewServer(fol.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with dead primary: %d, want 503", resp.StatusCode)
	}
	b, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(b), CodeNotReady) {
		t.Fatalf("readyz body missing code %q: %s", CodeNotReady, b)
	}
	// Liveness stays green regardless.
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("follower healthz: %v %v", resp.StatusCode, err)
	}
	if fmt.Sprint(fol.Stats().Reconnects) == "0" {
		t.Error("follower never attempted to reconnect")
	}
}
