package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// specSink is a Submitter that validates like the daemon and remembers the
// last accepted spec, without running anything.
type specSink struct{ last *JobSpec }

func (s *specSink) Submit(spec JobSpec) (CampaignSnapshot, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return CampaignSnapshot{}, err
	}
	s.last = &spec
	return CampaignSnapshot{ID: 1, Spec: spec, State: StateQueued}, nil
}

func postSpec(srv *Server, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/campaigns", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec
}

func TestSubmitBodyBounds(t *testing.T) {
	sink := &specSink{}
	srv := NewServer(ServerOptions{Submitter: sink, DisablePprof: true})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"valid", `{"model":"smallcnn","trials":4,"q":6}`, http.StatusAccepted},
		{"valid with trailing space", "{\"model\":\"smallcnn\"}\n  \n", http.StatusAccepted},
		{"trailing object", `{"model":"smallcnn"}{"model":"vggs"}`, http.StatusBadRequest},
		{"trailing garbage", `{"model":"smallcnn"} x`, http.StatusBadRequest},
		{"not json", `model=smallcnn`, http.StatusBadRequest},
		{"invalid spec", `{"model":"smallcnn","q":1}`, http.StatusBadRequest},
		{"oversize", `{"model":"smallcnn","pad":"` + strings.Repeat("x", maxJobSpecBytes) + `"}`, http.StatusRequestEntityTooLarge},
		{"oversize trailing", `{"model":"smallcnn"}` + strings.Repeat(" ", maxJobSpecBytes), http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		if got := postSpec(srv, []byte(c.body)).Code; got != c.want {
			t.Errorf("%s: status %d, want %d", c.name, got, c.want)
		}
	}
}

// FuzzSubmit drives POST /campaigns with arbitrary bodies: decoding and
// validation never panic, every answer is 202, 400 or 413, and an accepted
// spec survives a JSON round trip unchanged.
func FuzzSubmit(f *testing.F) {
	for _, seed := range []string{
		`{"model":"smallcnn","trials":16,"q":8}`,
		`{"model":"resnet18","scale":-3,"keep":0.5,"seed":7,"robust":true}`,
		`{"model":"vggs","scale":1,"timeout_seconds":1e308}`,
		`{"model":"smallcnn"} {}`,
		`{"model":"mobilenetv2","chaos":true,"chaos_seed":-1}`,
		`[1,2,3]`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if spec, err := decodeJobSpec(bytes.NewReader(body)); err == nil {
			_ = spec.Validate()
		}
		sink := &specSink{}
		srv := NewServer(ServerOptions{Submitter: sink, DisablePprof: true})
		rec := postSpec(srv, body)
		switch rec.Code {
		case http.StatusAccepted:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if sink.last != nil {
				t.Fatalf("status %d but the spec was submitted", rec.Code)
			}
			return
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		if sink.last == nil {
			t.Fatal("202 without a submitted spec")
		}
		enc, err := json.Marshal(*sink.last)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		back, err := decodeJobSpec(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("accepted spec %s does not decode: %v", enc, err)
		}
		if !reflect.DeepEqual(back, *sink.last) {
			t.Fatalf("round trip changed the spec: %+v -> %+v", *sink.last, back)
		}
	})
}
