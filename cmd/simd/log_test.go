package main

import (
	"bytes"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/telemetry"
)

// newLoggedServer wraps a test server in the access-log middleware and
// captures the standard logger's output.
func newLoggedServer(t *testing.T, quiet bool) (*httptest.Server, *telemetry.Registry, *bytes.Buffer) {
	t.Helper()
	reg := telemetry.NewRegistry()
	lab := core.NewLabWith(jobs.New(jobs.Config{Workers: 1, Registry: reg}))
	ts := httptest.NewServer(accessLog(newServer(lab, reg).handler(), reg, quiet))
	t.Cleanup(ts.Close)

	var buf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&buf)
	t.Cleanup(func() { log.SetOutput(prev) })
	return ts, reg, &buf
}

// TestAccessLog checks the request-scoped observability contract: every
// request gets an ID echoed in X-Request-Id, one structured key=value
// line lands in the log with cache traffic attributed to the request,
// and latency feeds the http.request_latency_us histogram.
func TestAccessLog(t *testing.T) {
	ts, reg, buf := newLoggedServer(t, false)

	body := `{"points":[{"bench":"queens","config":"d16"}]}`
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: %d", i, resp.StatusCode)
		}
		if rid := resp.Header.Get("X-Request-Id"); !regexp.MustCompile(`^r\d{6}$`).MatchString(rid) {
			t.Fatalf("batch %d: X-Request-Id = %q, want r<6 digits>", i, rid)
		}
	}

	logs := buf.String()
	// First request simulates (a cache miss), the repeat is served from
	// the result cache (a hit) — the access log attributes both.
	for _, want := range []string{
		"method=POST path=/v1/batch request_id=r000001 status=200",
		"cache_hit=0 cache_miss=1",
		"method=POST path=/v1/batch request_id=r000002 status=200",
		"cache_hit=1 cache_miss=0",
		"dur_us=",
	} {
		if !strings.Contains(logs, want) {
			t.Fatalf("access log missing %q:\n%s", want, logs)
		}
	}

	h := reg.Histogram("http.request_latency_us")
	if h.Count() != 2 {
		t.Fatalf("latency histogram count = %d, want 2", h.Count())
	}
}

// TestAccessLogQuiet checks -quiet suppresses the log line but keeps the
// request ID and latency accounting.
func TestAccessLogQuiet(t *testing.T) {
	ts, reg, buf := newLoggedServer(t, true)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rid := resp.Header.Get("X-Request-Id"); rid == "" {
		t.Fatal("quiet mode dropped X-Request-Id")
	}
	if got := buf.String(); strings.Contains(got, "method=") {
		t.Fatalf("quiet mode still logged:\n%s", got)
	}
	if h := reg.Histogram("http.request_latency_us"); h.Count() != 1 {
		t.Fatalf("latency histogram count = %d, want 1", h.Count())
	}
}

// TestAccessLogStatus checks error statuses are recorded faithfully.
func TestAccessLogStatus(t *testing.T) {
	ts, _, buf := newLoggedServer(t, false)
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(buf.String(), "status=400") {
		t.Fatalf("access log missing status=400:\n%s", buf.String())
	}
}
