package serve

import (
	"encoding/json"
	"net/http"
)

// maxBodyBytes bounds a single-job submission's body.
const maxBodyBytes = 1 << 16

// decodeJob reads the POST /v1/jobs body as one JobRequest: unknown
// fields are rejected, bytes after the first JSON value are ignored,
// and a value that does not complete within maxBodyBytes fails with
// http.MaxBytesReader's "http: request body too large".
func (s *Server) decodeJob(w http.ResponseWriter, r *http.Request) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}
