package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Pooled, allocation-free response encoding for the ingest hot path.
//
// The wire format is pinned by the replay suite: whatever
// json.NewEncoder(w).SetIndent("", "  ").Encode produced before must
// come out byte-identical now. The fast encoder therefore reproduces
// encoding/json's exact float formatting ('f' format, switching to 'e'
// below 1e-6 or at 1e21, with the two-digit exponent trim) and bails
// to the legacy encoder the moment a value falls outside its safe
// subset — a NaN/Inf, or a string containing anything beyond plain
// printable ASCII (encoding/json escapes <, >, & and control bytes;
// the fast path emits none of them). Fixed bodies (drain 503s, the
// handler-timer 504) are rendered once at server construction by the
// legacy encoder itself, so their bytes are identical by construction.

var respPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// staticBodies holds the canonical bytes of the fixed responses and
// the precomputed Retry-After header value.
type staticBodies struct {
	retryAfterSecs  int
	retryAfterStr   string
	drainCluster    []byte // 503, route(): cluster draining
	drainShards     []byte // 503, route(): every shard draining
	deadlineExpired []byte // 504, handler wall timer
	expiredAtAdm    []byte // 504, admission fast-fail
	expiredQueued   []byte // 504, dropped at batch formation
}

// canonicalJSON renders v exactly as writeJSON does (indented, with
// the encoder's trailing newline).
func canonicalJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	return buf.Bytes()
}

func (sb *staticBodies) init(retryAfter time.Duration) {
	sec := int((retryAfter + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	sb.retryAfterSecs = sec
	sb.retryAfterStr = strconv.Itoa(sec)
	sb.drainCluster = canonicalJSON(errorBody{Error: "server is draining, not admitting new jobs", RetryAfter: sec})
	sb.drainShards = canonicalJSON(errorBody{Error: "every shard is draining, not admitting new jobs", RetryAfter: sec})
	sb.deadlineExpired = canonicalJSON(errorBody{Error: "deadline expired"})
	sb.expiredAtAdm = canonicalJSON(errorBody{Error: "deadline already expired at admission"})
	sb.expiredQueued = canonicalJSON(errorBody{Error: "deadline expired while queued"})
}

// static returns the precomputed body for a fixed message, or nil.
func (sb *staticBodies) static(status int, msg string) []byte {
	switch status {
	case 503:
		switch msg {
		case "server is draining, not admitting new jobs":
			return sb.drainCluster
		case "every shard is draining, not admitting new jobs":
			return sb.drainShards
		}
	case 504:
		switch msg {
		case "deadline expired":
			return sb.deadlineExpired
		case "deadline already expired at admission":
			return sb.expiredAtAdm
		case "deadline expired while queued":
			return sb.expiredQueued
		}
	}
	return nil
}

// writeBody commits status and writes a fully rendered body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// appendJSONString appends s as a JSON string if it is plain printable
// ASCII with nothing encoding/json would escape (including the HTML
// set <, >, &).
func appendJSONString(b []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return b, false
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	b = append(b, '"')
	return b, true
}

// appendJSONFloat appends f exactly as encoding/json renders a
// float64.
func appendJSONFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json trims a two-digit exponent's leading zero:
		// 1e-09 → 1e-9.
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendJobResult appends res in the indented layout of
// json.Encoder.SetIndent("", "  ") at nesting depth (0 = top level).
func appendJobResult(b []byte, res *JobResult, depth int) ([]byte, bool) {
	var pad, pad2 string
	switch depth {
	case 0:
		pad, pad2 = "", "  "
	default:
		pad, pad2 = "  ", "    "
	}
	var ok bool
	b = append(b, '{', '\n')
	b = append(b, pad2...)
	b = append(b, `"job": `...)
	b = strconv.AppendUint(b, res.Job, 10)
	b = append(b, ",\n"...)
	b = append(b, pad2...)
	b = append(b, `"tenant": `...)
	if b, ok = appendJSONString(b, res.Tenant); !ok {
		return b, false
	}
	b = append(b, ",\n"...)
	b = append(b, pad2...)
	b = append(b, `"func": `...)
	if b, ok = appendJSONString(b, res.Func); !ok {
		return b, false
	}
	b = append(b, ",\n"...)
	b = append(b, pad2...)
	b = append(b, `"tasks": `...)
	b = strconv.AppendInt(b, int64(res.Tasks), 10)
	b = append(b, ",\n"...)
	b = append(b, pad2...)
	b = append(b, `"tasks_run": `...)
	b = strconv.AppendInt(b, int64(res.TasksRun), 10)
	b = append(b, ",\n"...)
	b = append(b, pad2...)
	b = append(b, `"batch": `...)
	b = strconv.AppendInt(b, int64(res.Batch), 10)
	b = append(b, ",\n"...)
	if res.Shard != nil {
		b = append(b, pad2...)
		b = append(b, `"shard": `...)
		b = strconv.AppendInt(b, int64(*res.Shard), 10)
		b = append(b, ",\n"...)
	}
	b = append(b, pad2...)
	b = append(b, `"queue_ms": `...)
	if b, ok = appendJSONFloat(b, res.QueueMS); !ok {
		return b, false
	}
	b = append(b, ",\n"...)
	b = append(b, pad2...)
	b = append(b, `"batch_ms": `...)
	if b, ok = appendJSONFloat(b, res.BatchMS); !ok {
		return b, false
	}
	b = append(b, ",\n"...)
	b = append(b, pad2...)
	b = append(b, `"energy_j": `...)
	if b, ok = appendJSONFloat(b, res.EnergyJ); !ok {
		return b, false
	}
	b = append(b, ",\n"...)
	b = append(b, pad2...)
	b = append(b, `"energy_attr_j": `...)
	if b, ok = appendJSONFloat(b, res.EnergyAttrJ); !ok {
		return b, false
	}
	b = append(b, ",\n"...)
	b = append(b, pad2...)
	b = append(b, `"steals": `...)
	b = strconv.AppendInt(b, int64(res.Steals), 10)
	b = append(b, ",\n"...)
	b = append(b, pad2...)
	b = append(b, `"policy": `...)
	if b, ok = appendJSONString(b, res.Policy); !ok {
		return b, false
	}
	b = append(b, '\n')
	b = append(b, pad...)
	b = append(b, '}')
	return b, true
}

// writeResult writes a JobResult response (200, or a bare-result
// shape), falling back to the legacy encoder outside the fast subset.
func writeResult(w http.ResponseWriter, status int, res *JobResult) {
	bp := respPool.Get().(*[]byte)
	b, ok := appendJobResult((*bp)[:0], res, 0)
	if !ok {
		*bp = b[:0]
		respPool.Put(bp)
		writeJSON(w, status, res)
		return
	}
	b = append(b, '\n')
	writeBody(w, status, b)
	*bp = b[:0]
	respPool.Put(bp)
}

// appendErrorBody appends the errorBody envelope.
func appendErrorBody(b []byte, msg string, retryAfter int) ([]byte, bool) {
	var ok bool
	b = append(b, "{\n  \"error\": "...)
	if b, ok = appendJSONString(b, msg); !ok {
		return b, false
	}
	if retryAfter != 0 { // omitempty omits only zero
		b = append(b, ",\n  \"retry_after_s\": "...)
		b = strconv.AppendInt(b, int64(retryAfter), 10)
	}
	b = append(b, "\n}"...)
	return b, true
}

// writeError writes the errorBody envelope (static bytes for the fixed
// messages, pooled fast encoding otherwise).
func (s *Server) writeError(w http.ResponseWriter, status int, msg string, retryAfter int) {
	if body := s.static.static(status, msg); body != nil {
		writeBody(w, status, body)
		return
	}
	bp := respPool.Get().(*[]byte)
	b, ok := appendErrorBody((*bp)[:0], msg, retryAfter)
	if !ok {
		*bp = b[:0]
		respPool.Put(bp)
		writeJSON(w, status, errorBody{Error: msg, RetryAfter: retryAfter})
		return
	}
	b = append(b, '\n')
	writeBody(w, status, b)
	*bp = b[:0]
	respPool.Put(bp)
}

// writePartial writes the 504 mid-batch envelope: the errorBody fields
// plus the partial result, nested one level deep.
func (s *Server) writePartial(w http.ResponseWriter, status int, msg string, res *JobResult) {
	bp := respPool.Get().(*[]byte)
	b := (*bp)[:0]
	var ok bool
	b = append(b, "{\n  \"error\": "...)
	if b, ok = appendJSONString(b, msg); !ok {
		ok = false
	} else {
		b = append(b, ",\n  \"partial\": "...)
		b, ok = appendJobResult(b, res, 1)
	}
	if !ok {
		*bp = b[:0]
		respPool.Put(bp)
		writeJSON(w, status, struct {
			errorBody
			Partial *JobResult `json:"partial,omitempty"`
		}{errorBody{Error: msg}, res})
		return
	}
	b = append(b, "\n}\n"...)
	writeBody(w, status, b)
	*bp = b[:0]
	respPool.Put(bp)
}
