package server

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"ccube/internal/report"
)

// ByteSize is a message size that accepts either a JSON number of bytes or a
// string with a K/M/G (power-of-two) suffix, e.g. "64M". It marshals back as
// a plain number so canonical request hashing is stable regardless of which
// spelling the client used.
type ByteSize int64

func (b *ByteSize) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		v, err := report.ParseBytes(s)
		if err != nil {
			return err
		}
		*b = ByteSize(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(data, &n); err != nil {
		return err
	}
	*b = ByteSize(n)
	return nil
}

func (b ByteSize) MarshalJSON() ([]byte, error) {
	return strconv.AppendInt(nil, int64(b), 10), nil
}

// PlanRequest asks the autotuner to rank AllReduce algorithms.
type PlanRequest struct {
	// Topology is dgx1, dgx1-low, cluster:<gpus>, or fc:<gpus>.
	Topology string `json:"topology"`
	// Bytes is the message size (number or "64M" string).
	Bytes ByteSize `json:"bytes"`
	// Objective is "latency" (default) or "turnaround".
	Objective string `json:"objective,omitempty"`
	// RequireInOrder excludes algorithms without in-order chunk delivery.
	RequireInOrder bool `json:"require_in_order,omitempty"`
	// AllowShared lets tree flows share physical channels.
	AllowShared bool `json:"allow_shared,omitempty"`
	// AllowSynth adds a topology-synthesized schedule (internal/synth) to
	// the ranked candidates.
	AllowSynth bool `json:"allow_synth,omitempty"`
	// TimeoutMS caps this request's simulation time (0 = server default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// PlanCandidate is one ranked algorithm.
type PlanCandidate struct {
	Algorithm    string `json:"algorithm"`
	TotalNS      int64  `json:"total_ns"`
	Total        string `json:"total"`
	TurnaroundNS int64  `json:"turnaround_ns"`
	Turnaround   string `json:"turnaround"`
	InOrder      bool   `json:"in_order"`
}

// PlanResponse is the ranked plan, best first.
type PlanResponse struct {
	Topology   string          `json:"topology"`
	Bytes      int64           `json:"bytes"`
	Objective  string          `json:"objective"`
	Best       PlanCandidate   `json:"best"`
	Candidates []PlanCandidate `json:"candidates"`
	Table      *report.Table   `json:"table"`
}

// SimulateRequest runs one collective on the discrete-event simulator.
type SimulateRequest struct {
	Topology string `json:"topology"`
	// Algorithm is ring, tree, tree-overlap, double-tree, ccube, or
	// halving-doubling.
	Algorithm string   `json:"algorithm"`
	Bytes     ByteSize `json:"bytes"`
	// Chunks pins the chunk count, at most collective.MaxAutoChunks; 0
	// (the default) picks the cost-model optimum.
	Chunks      int  `json:"chunks,omitempty"`
	AllowShared bool `json:"allow_shared,omitempty"`
	// Fault optionally injects faults, e.g. "kill:2-3" (fault.ParseSpec
	// grammar). Faulted runs repair and relaunch like ccube-sim -fault.
	Fault string `json:"fault,omitempty"`
	// TopChannels caps the utilization listing (default 8).
	TopChannels int `json:"top_channels,omitempty"`
	TimeoutMS   int `json:"timeout_ms,omitempty"`
}

// ChannelUse reports one channel's occupancy.
type ChannelUse struct {
	Channel     string  `json:"channel"`
	Utilization float64 `json:"utilization"`
}

// RepairSummary reports what the fault-repair layer did.
type RepairSummary struct {
	Attempts     int      `json:"attempts"`
	Rerouted     int      `json:"rerouted"`
	MidRunDeaths []string `json:"mid_run_deaths,omitempty"`
	Routes       []string `json:"routes,omitempty"`
}

// SimulateResponse is the timing decomposition of one collective run.
type SimulateResponse struct {
	Topology      string         `json:"topology"`
	Algorithm     string         `json:"algorithm"`
	Bytes         int64          `json:"bytes"`
	Participants  int            `json:"participants"`
	Chunks        int            `json:"chunks"`
	TotalNS       int64          `json:"total_ns"`
	Total         string         `json:"total"`
	TurnaroundNS  int64          `json:"turnaround_ns"`
	Turnaround    string         `json:"turnaround"`
	BandwidthGBps float64        `json:"bandwidth_gbps"`
	InOrder       bool           `json:"in_order"`
	Channels      []ChannelUse   `json:"channels"`
	Repair        *RepairSummary `json:"repair,omitempty"`
	Table         *report.Table  `json:"table"`
}

// TrainRequest simulates one training iteration.
type TrainRequest struct {
	// Topology is dgx1 or dgx1-low (training runs on one box).
	Topology string `json:"topology"`
	// Model is zfnet, vgg16, resnet50, or bert-base.
	Model string `json:"model"`
	Batch int    `json:"batch"`
	// Mode is B, C1, C2, R, CC (paper Fig. 13), or DDP (prior-work
	// backward-overlap ablation).
	Mode string `json:"mode"`
	// Chunks is as in SimulateRequest.
	Chunks      int  `json:"chunks,omitempty"`
	AllowShared bool `json:"allow_shared,omitempty"`
	TimeoutMS   int  `json:"timeout_ms,omitempty"`
}

// TrainResponse is one simulated iteration.
type TrainResponse struct {
	Topology      string        `json:"topology"`
	Model         string        `json:"model"`
	Batch         int           `json:"batch"`
	Mode          string        `json:"mode"`
	IterTimeNS    int64         `json:"iter_time_ns"`
	IterTime      string        `json:"iter_time"`
	ComputeTimeNS int64         `json:"compute_time_ns"`
	ComputeTime   string        `json:"compute_time"`
	Normalized    float64       `json:"normalized"`
	PerGPUNS      []int64       `json:"per_gpu_ns"`
	Table         *report.Table `json:"table"`
}

// ErrorInfo is the machine-readable error payload.
type ErrorInfo struct {
	// Kind is one of: bad_request, unprocessable, too_large, saturated,
	// deadline, canceled, draining, method, not_found, internal.
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

// ErrorBody wraps every non-2xx response.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// apiError carries an HTTP status plus the wire error payload.
type apiError struct {
	status int
	kind   string
	msg    string
}

func (e *apiError) Error() string { return fmt.Sprintf("%s: %s", e.kind, e.msg) }

func errBadRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, kind: "bad_request", msg: fmt.Sprintf(format, args...)}
}

func errUnprocessable(err error) *apiError {
	return &apiError{status: http.StatusUnprocessableEntity, kind: "unprocessable", msg: err.Error()}
}

// decodeStrict parses a JSON request body: size-capped, unknown fields
// rejected, trailing garbage rejected.
func decodeStrict(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) *apiError {
	body := http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &apiError{status: http.StatusRequestEntityTooLarge, kind: "too_large",
				msg: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		return errBadRequest("invalid JSON body: %v", err)
	}
	if dec.More() {
		return errBadRequest("trailing data after JSON body")
	}
	if _, err := dec.Token(); err != io.EOF {
		return errBadRequest("trailing data after JSON body")
	}
	return nil
}

// canonicalKey hashes the parsed (hence normalized) request for the response
// cache and singleflight collapsing: two textually different bodies that
// parse to the same request share one computation. The known request types
// render through their append encoders into a pooled buffer and the digest
// lands in a comparable struct, so computing a key allocates nothing.
func canonicalKey(ep endpoint, req any) reqKey {
	buf := getBuf()
	b := (*buf)[:0]
	switch r := req.(type) {
	case PlanRequest:
		b = r.appendJSON(b)
	case SimulateRequest:
		b = r.appendJSON(b)
	case TrainRequest:
		b = r.appendJSON(b)
	default:
		if m, err := json.Marshal(req); err == nil {
			b = append(b, m...)
		}
		// Unmarshalable requests hash as the empty body: request types are
		// plain data, so this cannot happen outside of tests.
	}
	sum := sha256.Sum256(b)
	*buf = b // retain growth for the next Get
	putBuf(buf)
	return reqKey{ep: ep, sum: sum}
}
