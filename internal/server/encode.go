package server

import (
	"net/http"
	"sync"

	"ccube/internal/jsonenc"
)

// Hand-rolled append-based encoders for the hot response shapes. Profiles of
// the serve path showed reflection-driven json.Marshal dominating cache-miss
// latency after the simulation itself; these encoders render /v1/plan and
// /v1/simulate bodies (and the error wire form) into pooled buffers with
// zero steady-state allocations. Field order, omitempty behavior, string
// escaping, and float formatting are byte-identical to encoding/json —
// pinned by the golden tests in encode_test.go. When a field is added to a
// response struct in api.go, its appendJSON method here must change in the
// same commit or the golden tests fail.

// bufPool recycles response-body buffers. Entries are *[]byte so Put does
// not allocate an interface box; the same pointer shuttles Get→Put.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096) // steady state reuses grown buffers
		return &b
	},
}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	*b = (*b)[:0]
	bufPool.Put(b)
}

// encodeBody renders v into a pooled buffer when v is one of the hot
// response shapes, returning a refcounted cachedResponse that owns the
// buffer. It returns nil for shapes without a hand-rolled encoder (the
// caller falls back to json.Marshal).
func encodeBody(v any) *cachedResponse {
	var body []byte
	buf := getBuf()
	switch r := v.(type) {
	case *PlanResponse:
		body = r.AppendJSON((*buf)[:0])
	case *SimulateResponse:
		body = r.AppendJSON((*buf)[:0])
	default:
		putBuf(buf)
		return nil
	}
	body = append(body, '\n')
	*buf = body // retain any growth for the next Get
	resp := &cachedResponse{status: http.StatusOK, body: body, buf: buf}
	resp.refs.Store(1)
	return resp
}

func (r PlanCandidate) appendJSON(b []byte) []byte {
	b = append(b, `{"algorithm":`...)
	b = jsonenc.AppendString(b, r.Algorithm)
	b = append(b, `,"total_ns":`...)
	b = jsonenc.AppendInt(b, r.TotalNS)
	b = append(b, `,"total":`...)
	b = jsonenc.AppendString(b, r.Total)
	b = append(b, `,"turnaround_ns":`...)
	b = jsonenc.AppendInt(b, r.TurnaroundNS)
	b = append(b, `,"turnaround":`...)
	b = jsonenc.AppendString(b, r.Turnaround)
	b = append(b, `,"in_order":`...)
	b = jsonenc.AppendBool(b, r.InOrder)
	return append(b, '}')
}

func (r *PlanResponse) AppendJSON(b []byte) []byte {
	b = append(b, `{"topology":`...)
	b = jsonenc.AppendString(b, r.Topology)
	b = append(b, `,"bytes":`...)
	b = jsonenc.AppendInt(b, r.Bytes)
	b = append(b, `,"objective":`...)
	b = jsonenc.AppendString(b, r.Objective)
	b = append(b, `,"best":`...)
	b = r.Best.appendJSON(b)
	b = append(b, `,"candidates":`...)
	if r.Candidates == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, c := range r.Candidates {
			if i > 0 {
				b = append(b, ',')
			}
			b = c.appendJSON(b)
		}
		b = append(b, ']')
	}
	b = append(b, `,"table":`...)
	if r.Table == nil {
		b = append(b, "null"...)
	} else {
		b = r.Table.AppendJSON(b)
	}
	return append(b, '}')
}

func (r ChannelUse) appendJSON(b []byte) []byte {
	b = append(b, `{"channel":`...)
	b = jsonenc.AppendString(b, r.Channel)
	b = append(b, `,"utilization":`...)
	b = jsonenc.AppendFloat(b, r.Utilization)
	return append(b, '}')
}

func (r *RepairSummary) appendJSON(b []byte) []byte {
	b = append(b, `{"attempts":`...)
	b = jsonenc.AppendInt(b, int64(r.Attempts))
	b = append(b, `,"rerouted":`...)
	b = jsonenc.AppendInt(b, int64(r.Rerouted))
	if len(r.MidRunDeaths) > 0 { // omitempty
		b = append(b, `,"mid_run_deaths":`...)
		b = jsonenc.AppendStrings(b, r.MidRunDeaths)
	}
	if len(r.Routes) > 0 { // omitempty
		b = append(b, `,"routes":`...)
		b = jsonenc.AppendStrings(b, r.Routes)
	}
	return append(b, '}')
}

func (r *SimulateResponse) AppendJSON(b []byte) []byte {
	b = append(b, `{"topology":`...)
	b = jsonenc.AppendString(b, r.Topology)
	b = append(b, `,"algorithm":`...)
	b = jsonenc.AppendString(b, r.Algorithm)
	b = append(b, `,"bytes":`...)
	b = jsonenc.AppendInt(b, r.Bytes)
	b = append(b, `,"participants":`...)
	b = jsonenc.AppendInt(b, int64(r.Participants))
	b = append(b, `,"chunks":`...)
	b = jsonenc.AppendInt(b, int64(r.Chunks))
	b = append(b, `,"total_ns":`...)
	b = jsonenc.AppendInt(b, r.TotalNS)
	b = append(b, `,"total":`...)
	b = jsonenc.AppendString(b, r.Total)
	b = append(b, `,"turnaround_ns":`...)
	b = jsonenc.AppendInt(b, r.TurnaroundNS)
	b = append(b, `,"turnaround":`...)
	b = jsonenc.AppendString(b, r.Turnaround)
	b = append(b, `,"bandwidth_gbps":`...)
	b = jsonenc.AppendFloat(b, r.BandwidthGBps)
	b = append(b, `,"in_order":`...)
	b = jsonenc.AppendBool(b, r.InOrder)
	b = append(b, `,"channels":`...)
	if r.Channels == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, c := range r.Channels {
			if i > 0 {
				b = append(b, ',')
			}
			b = c.appendJSON(b)
		}
		b = append(b, ']')
	}
	if r.Repair != nil { // omitempty
		b = append(b, `,"repair":`...)
		b = r.Repair.appendJSON(b)
	}
	b = append(b, `,"table":`...)
	if r.Table == nil {
		b = append(b, "null"...)
	} else {
		b = r.Table.AppendJSON(b)
	}
	return append(b, '}')
}

// appendErrorBody renders ErrorBody{Error: {kind, msg}} — the wire form of
// every non-2xx response — without json.Marshal, so error paths (shedding
// under overload, drain rejections) stay allocation-free too.
func appendErrorBody(b []byte, kind, msg string) []byte {
	b = append(b, `{"error":{"kind":`...)
	b = jsonenc.AppendString(b, kind)
	b = append(b, `,"message":`...)
	b = jsonenc.AppendString(b, msg)
	return append(b, '}', '}')
}

// Request encoders back canonicalKey's zero-alloc hashing; their output must
// match json.Marshal on the same value so cache keys stay stable across the
// representation change (golden-tested like the responses). ByteSize fields
// render as plain numbers per ByteSize.MarshalJSON.

func (r PlanRequest) appendJSON(b []byte) []byte {
	b = append(b, `{"topology":`...)
	b = jsonenc.AppendString(b, r.Topology)
	b = append(b, `,"bytes":`...)
	b = jsonenc.AppendInt(b, int64(r.Bytes))
	if r.Objective != "" { // omitempty
		b = append(b, `,"objective":`...)
		b = jsonenc.AppendString(b, r.Objective)
	}
	if r.RequireInOrder { // omitempty
		b = append(b, `,"require_in_order":true`...)
	}
	if r.AllowShared { // omitempty
		b = append(b, `,"allow_shared":true`...)
	}
	if r.AllowSynth { // omitempty
		b = append(b, `,"allow_synth":true`...)
	}
	if r.TimeoutMS != 0 { // omitempty
		b = append(b, `,"timeout_ms":`...)
		b = jsonenc.AppendInt(b, int64(r.TimeoutMS))
	}
	return append(b, '}')
}

func (r SimulateRequest) appendJSON(b []byte) []byte {
	b = append(b, `{"topology":`...)
	b = jsonenc.AppendString(b, r.Topology)
	b = append(b, `,"algorithm":`...)
	b = jsonenc.AppendString(b, r.Algorithm)
	b = append(b, `,"bytes":`...)
	b = jsonenc.AppendInt(b, int64(r.Bytes))
	if r.Chunks != 0 { // omitempty
		b = append(b, `,"chunks":`...)
		b = jsonenc.AppendInt(b, int64(r.Chunks))
	}
	if r.AllowShared { // omitempty
		b = append(b, `,"allow_shared":true`...)
	}
	if r.Fault != "" { // omitempty
		b = append(b, `,"fault":`...)
		b = jsonenc.AppendString(b, r.Fault)
	}
	if r.TopChannels != 0 { // omitempty
		b = append(b, `,"top_channels":`...)
		b = jsonenc.AppendInt(b, int64(r.TopChannels))
	}
	if r.TimeoutMS != 0 { // omitempty
		b = append(b, `,"timeout_ms":`...)
		b = jsonenc.AppendInt(b, int64(r.TimeoutMS))
	}
	return append(b, '}')
}

func (r TrainRequest) appendJSON(b []byte) []byte {
	b = append(b, `{"topology":`...)
	b = jsonenc.AppendString(b, r.Topology)
	b = append(b, `,"model":`...)
	b = jsonenc.AppendString(b, r.Model)
	b = append(b, `,"batch":`...)
	b = jsonenc.AppendInt(b, int64(r.Batch))
	b = append(b, `,"mode":`...)
	b = jsonenc.AppendString(b, r.Mode)
	if r.Chunks != 0 { // omitempty
		b = append(b, `,"chunks":`...)
		b = jsonenc.AppendInt(b, int64(r.Chunks))
	}
	if r.AllowShared { // omitempty
		b = append(b, `,"allow_shared":true`...)
	}
	if r.TimeoutMS != 0 { // omitempty
		b = append(b, `,"timeout_ms":`...)
		b = jsonenc.AppendInt(b, int64(r.TimeoutMS))
	}
	return append(b, '}')
}
