package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// refEncode renders v through writeJSON — the legacy encoder whose
// bytes the replay suite pins.
func refEncode(status int, v any) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	writeJSON(w, status, v)
	return w
}

func checkSame(t *testing.T, name string, got, want *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code {
		t.Errorf("%s: status %d, want %d", name, got.Code, want.Code)
	}
	if g, w := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); g != w {
		t.Errorf("%s: content-type %q, want %q", name, g, w)
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("%s: body\n%q\nwant\n%q", name, got.Body.Bytes(), want.Body.Bytes())
	}
}

// resultFloats are the float fields TestWriteResultMatchesStdlib
// renders: both sides of encoding/json's 'f'/'e' switch at 1e-6 and
// 1e21, the smallest subnormal and the largest finite value.
var resultFloats = []float64{
	0, 1, 0.1, 0.25, 123.456789, 1e-6, 9.9e-7, 1e-7, 2.5e-7,
	1e20, 9.99e20, 1e21, 3.7e22, 5e-324, math.MaxFloat64, 0.0005100220,
}

// errorCases are the messages TestWriteErrorAndPartialMatchStdlib
// renders; retry -1 stands for the server's own Retry-After, the only
// value production callers pass with the pre-rendered drain 503s.
var errorCases = []struct {
	status, retry int
	msg           string
}{
	{503, -1, "server is draining, not admitting new jobs"},
	{503, -1, "every shard is draining, not admitting new jobs"},
	{504, 0, "deadline expired"},
	{504, 0, "deadline already expired at admission"},
	{504, 0, "deadline expired while queued"},
	{429, 2, `tenant "acme" queue full (130/128 tasks)`},
	{429, 2, "in-flight budget full (513/512 tasks)"},
	{400, 0, "size_bytes 2000000 outside (0, 1048576]"},
	{400, 0, "weird message with \"quotes\" and <html> & unicode é"},
}

// partialBody is the legacy encoder's shape of the 504 mid-batch
// envelope that writePartial renders.
type partialBody struct {
	errorBody
	Partial *JobResult `json:"partial,omitempty"`
}

func TestWriteResultMatchesStdlib(t *testing.T) {
	shard := 2
	for _, f := range resultFloats {
		res := &JobResult{
			Job: 12345, Tenant: "acme", Func: "sha1", Tasks: 8, TasksRun: 7,
			Batch: 42, QueueMS: f, BatchMS: f * 3, EnergyJ: f / 7, EnergyAttrJ: f,
			Steals: 3, Policy: "eewa",
		}
		got := httptest.NewRecorder()
		writeResult(got, 200, res)
		checkSame(t, "result", got, refEncode(200, res))

		res.Shard = &shard
		got = httptest.NewRecorder()
		writeResult(got, 200, res)
		checkSame(t, "result+shard", got, refEncode(200, res))
	}

	// Outside the fast subset (string needing escapes) the fallback is
	// writeJSON itself, so equality is trivial — but exercise the seam.
	res := &JobResult{Job: 1, Tenant: "a<b>&c", Func: "sha1", Policy: "eewa"}
	got := httptest.NewRecorder()
	writeResult(got, 200, res)
	checkSame(t, "result-fallback", got, refEncode(200, res))
}

func TestWriteErrorAndPartialMatchStdlib(t *testing.T) {
	s, _ := testServer(t, nil)
	t.Cleanup(func() { drain(t, s) })

	for _, m := range errorCases {
		retry := m.retry
		if retry < 0 {
			retry = s.static.retryAfterSecs
		}
		got := httptest.NewRecorder()
		s.writeError(got, m.status, m.msg, retry)
		checkSame(t, "error", got, refEncode(m.status, errorBody{Error: m.msg, RetryAfter: retry}))
	}

	res := &JobResult{Job: 9, Tenant: "beta", Func: "md5", Tasks: 4, TasksRun: 2,
		Batch: 3, QueueMS: 1.25, BatchMS: 0.5, EnergyJ: 0.125, EnergyAttrJ: 0.0625, Policy: "eewa"}
	got := httptest.NewRecorder()
	s.writePartial(got, 504, "deadline expired mid-batch", res)
	checkSame(t, "partial", got, refEncode(504, partialBody{errorBody{Error: "deadline expired mid-batch"}, res}))
}

// FuzzEncodeMatchesStdlib checks the pooled encoder against the legacy
// one on arbitrary results and messages: writeResult, writeError and
// writePartial must emit the bytes writeJSON would, whether they take
// the fast path or fall back.
func FuzzEncodeMatchesStdlib(f *testing.F) {
	for _, x := range resultFloats {
		f.Add(uint64(12345), "acme", "sha1", 8, 7, 42, false, 0, x, x*3, x/7, x, 3, "eewa",
			"deadline expired mid-batch", 0, 200)
	}
	for _, m := range errorCases {
		f.Add(uint64(9), "beta", "md5", 4, 2, 3, true, 2, 1.25, 0.5, 0.125, 0.0625, 0, "eewa",
			m.msg, m.retry, m.status)
	}
	negZero := math.Copysign(0, -1)
	f.Add(uint64(0), "héllo", "sha1\x00", -1, 0, 0, true, -3, negZero, math.NaN(), math.Inf(1), math.Inf(-1),
		0, "a<b>&c", "line\nbreak\ttab \x7f", 7, 504)
	f.Add(uint64(1<<63), "\xff\xfe", "\u2028", 1, 1, 1, false, 0, 1e-6, 9.999999999999999e-7, 1e21, 9.999999999999998e20,
		1, "eewa", "\"quoted\" \\ back", -2, 429)

	s := &Server{}
	s.static.init(time.Second)
	f.Fuzz(func(t *testing.T, job uint64, tenant, fn string, tasks, run, batch int, hasShard bool, shard int,
		queueMS, batchMS, energy, attr float64, steals int, policy, msg string, retry, status int) {
		if status < 200 || status > 599 {
			t.Skip("not a status the handlers write")
		}
		if s.static.static(status, msg) != nil {
			// Pre-rendered bodies carry the server's own Retry-After
			// (503) or none (504), as every production caller passes.
			retry = 0
			if status == 503 {
				retry = s.static.retryAfterSecs
			}
		}
		res := &JobResult{
			Job: job, Tenant: tenant, Func: fn, Tasks: tasks, TasksRun: run, Batch: batch,
			QueueMS: queueMS, BatchMS: batchMS, EnergyJ: energy, EnergyAttrJ: attr,
			Steals: steals, Policy: policy,
		}
		if hasShard {
			res.Shard = &shard
		}

		got := httptest.NewRecorder()
		writeResult(got, status, res)
		checkSame(t, "result", got, refEncode(status, res))

		got = httptest.NewRecorder()
		s.writeError(got, status, msg, retry)
		checkSame(t, "error", got, refEncode(status, errorBody{Error: msg, RetryAfter: retry}))

		got = httptest.NewRecorder()
		s.writePartial(got, status, msg, res)
		checkSame(t, "partial", got, refEncode(status, partialBody{errorBody{Error: msg}, res}))
	})
}

func TestBatchEndpoint(t *testing.T) {
	s, ts := testServer(t, nil)

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs:batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, out
	}

	// Happy path: every job completes, one response per job, in order.
	resp, body := post(`{"jobs":[
		{"tenant":"a","func":"sha1","count":2,"size_bytes":256},
		{"tenant":"b","func":"md5","count":1,"size_bytes":256}]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var bres BatchResponse
	if err := json.Unmarshal(body, &bres); err != nil {
		t.Fatal(err)
	}
	if len(bres.Jobs) != 2 {
		t.Fatalf("batch items %d, want 2", len(bres.Jobs))
	}
	for i, it := range bres.Jobs {
		if it.Status != 200 || it.Result == nil || it.Result.TasksRun != 2-i {
			t.Errorf("item %d = %+v, want 200 with %d tasks run", i, it, 2-i)
		}
	}
	if bres.Jobs[0].Result.Tenant != "a" || bres.Jobs[1].Result.Tenant != "b" {
		t.Errorf("batch items out of request order: %+v", bres.Jobs)
	}

	// A mixed batch: invalid jobs get per-item 400s, the rest still
	// run; overall status reflects the worst admission signal.
	resp, body = post(`{"jobs":[
		{"func":"sha1","count":1,"size_bytes":256},
		{"func":"nope","count":1,"size_bytes":256}]}`)
	if resp.StatusCode != 400 {
		t.Fatalf("mixed batch status %d: %s", resp.StatusCode, body)
	}
	bres = BatchResponse{}
	if err := json.Unmarshal(body, &bres); err != nil {
		t.Fatal(err)
	}
	if bres.Jobs[0].Status != 200 || bres.Jobs[1].Status != 400 ||
		!strings.Contains(bres.Jobs[1].Error, `unknown func "nope"`) {
		t.Errorf("mixed batch items %+v", bres.Jobs)
	}

	// Shape errors.
	if resp, _ := post(`{"jobs":[]}`); resp.StatusCode != 400 {
		t.Errorf("empty batch status %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(`{"bogus":1}`); resp.StatusCode != 400 {
		t.Errorf("unknown-field batch status %d, want 400", resp.StatusCode)
	}
	r, err := http.Get(ts.URL + "/v1/jobs:batch")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET batch status %d, want 405", r.StatusCode)
	}

	drain(t, s)
}

// A client that hangs up on POST /v1/jobs:batch must leave no job
// behind: every job returns to the pool (refs reach zero), and only
// the jobs still waiting count as disconnect cancellations — a job
// that resolved before the hang-up is a completion, not both. Run
// under -race (see the race-serve target).
func TestBatchDisconnectReleasesEveryJob(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := testServer(t, func(c *Config) {
		c.Obs = reg
		c.Shards = 2
		c.Routing = RouteRR
		c.ManualFlush = true
	})

	// Round-robin puts jobs 0 and 2 on shard 0 and job 1 on shard 1.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs:batch", strings.NewReader(`{"jobs":[
		{"func":"sha1","size_bytes":256},
		{"func":"sha1","size_bytes":256},
		{"func":"sha1","size_bytes":256}]}`)).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Admitted < 3 {
		if time.Now().After(deadline) {
			t.Fatal("batch never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	queued := func(sh *shard) []*job {
		sh.qmu.Lock()
		defer sh.qmu.Unlock()
		return slices.Clone(sh.pending[sh.head:])
	}
	q0, q1 := queued(s.shards[0]), queued(s.shards[1])
	jobs := []*job{q0[0], q1[0], q0[1]}

	// Resolve jobs 0 and 2, wait for the handler to take job 0's
	// outcome (it then blocks on job 1), and hang up.
	s.shards[0].flushAll()
	for len(jobs[0].done) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("handler never received job 0's outcome")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	drain(t, s)

	if got := counterAt(t, reg, "eewa_serve_cancelled_jobs_total", "disconnect"); got != 1 {
		t.Errorf("disconnect cancellations = %g, want 1 (only job 1 was still waiting)", got)
	}
	for i, j := range jobs {
		if refs := j.refs.Load(); refs != 0 {
			t.Errorf("job %d holds %d references after the handler returned, want 0", i, refs)
		}
	}
	if st := s.Stats(); st.Completed != 2 || st.Timeouts != 1 {
		t.Errorf("completed %d, timeouts %d; want 2 and 1", st.Completed, st.Timeouts)
	}
}
