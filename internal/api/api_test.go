package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/accounting"
	"repro/internal/hup"
	"repro/internal/soda"
)

func apiFixture(t *testing.T) (*httptest.Server, *hup.Testbed) {
	t.Helper()
	tb, err := hup.New(hup.Config{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Agent.RegisterASP("asp", "secret"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(tb).Handler())
	t.Cleanup(srv.Close)
	return srv, tb
}

func post(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func publishAndCreate(t *testing.T, srv *httptest.Server, name string, n int) ServiceView {
	t.Helper()
	if resp := post(t, srv.URL+"/v1/images", PublishRequest{Name: name + "-img", SizeMB: 30, DatasetMB: 4}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("publish status = %d", resp.StatusCode)
	}
	resp := post(t, srv.URL+"/v1/services", CreateRequest{
		Credential: "secret", Name: name, Image: name + "-img", N: n,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	return decode[ServiceView](t, resp)
}

func TestAPICreateListGetDelete(t *testing.T) {
	srv, _ := apiFixture(t)
	svc := publishAndCreate(t, srv, "web", 3)
	if svc.State != "active" || svc.Capacity != 3 || len(svc.Nodes) != 2 {
		t.Fatalf("service = %+v", svc)
	}
	if !strings.Contains(svc.ConfigFile, "BackEnd") {
		t.Fatal("config file missing from view")
	}
	for _, n := range svc.Nodes {
		if n.BootSec <= 0 || n.IP == "" {
			t.Fatalf("node view incomplete: %+v", n)
		}
	}

	resp, err := http.Get(srv.URL + "/v1/services")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	list := decode[[]ServiceView](t, resp)
	if len(list) != 1 || list[0].Name != "web" {
		t.Fatalf("list = %+v", list)
	}

	resp2, err := http.Get(srv.URL + "/v1/services/web")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if got := decode[ServiceView](t, resp2); got.Name != "web" {
		t.Fatalf("get = %+v", got)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/services/web?credential=secret", nil)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", resp3.StatusCode)
	}

	resp4, err := http.Get(srv.URL + "/v1/services/web")
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	if resp4.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete = %d", resp4.StatusCode)
	}
}

func TestAPIAuthenticationFailure(t *testing.T) {
	srv, _ := apiFixture(t)
	post(t, srv.URL+"/v1/images", PublishRequest{Name: "img", SizeMB: 30})
	resp := post(t, srv.URL+"/v1/services", CreateRequest{
		Credential: "wrong", Name: "web", Image: "img", N: 1,
	})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("status = %d, want 401", resp.StatusCode)
	}
}

func TestAPIAdmissionFailureIsConflict(t *testing.T) {
	srv, _ := apiFixture(t)
	post(t, srv.URL+"/v1/images", PublishRequest{Name: "img", SizeMB: 30})
	resp := post(t, srv.URL+"/v1/services", CreateRequest{
		Credential: "secret", Name: "web", Image: "img", N: 99,
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409", resp.StatusCode)
	}
}

func TestAPIMissingImageIsNotFound(t *testing.T) {
	srv, _ := apiFixture(t)
	resp := post(t, srv.URL+"/v1/services", CreateRequest{
		Credential: "secret", Name: "web", Image: "ghost", N: 1,
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestAPIResize(t *testing.T) {
	srv, _ := apiFixture(t)
	publishAndCreate(t, srv, "web", 2)
	resp := post(t, srv.URL+"/v1/services/web/resize", ResizeRequest{Credential: "secret", N: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resize status = %d", resp.StatusCode)
	}
	if got := decode[ServiceView](t, resp); got.Capacity != 4 {
		t.Fatalf("capacity = %d", got.Capacity)
	}
}

func TestAPIHUPAvailability(t *testing.T) {
	srv, _ := apiFixture(t)
	resp, err := http.Get(srv.URL + "/v1/hup")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	hosts := decode[[]HostView](t, resp)
	if len(hosts) != 2 {
		t.Fatalf("hosts = %+v", hosts)
	}
	names := fmt.Sprintf("%s %s", hosts[0].Name, hosts[1].Name)
	if !strings.Contains(names, "seattle") || !strings.Contains(names, "tacoma") {
		t.Fatalf("host names = %s", names)
	}
	if hosts[0].CPUMHz != 2600 {
		t.Fatalf("seattle free CPU = %d", hosts[0].CPUMHz)
	}

	// After a creation, availability drops by the inflated slice.
	publishAndCreate(t, srv, "web", 1)
	resp2, err := http.Get(srv.URL + "/v1/hup")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	hosts2 := decode[[]HostView](t, resp2)
	if hosts2[0].CPUMHz != 2600-768 { // 512 × 1.5
		t.Fatalf("free CPU after create = %d, want %d", hosts2[0].CPUMHz, 2600-768)
	}
	if hosts2[0].Nodes != 1 {
		t.Fatalf("node count = %d", hosts2[0].Nodes)
	}
}

func TestAPIStatus(t *testing.T) {
	srv, _ := apiFixture(t)
	publishAndCreate(t, srv, "web", 2)
	resp, err := http.Get(srv.URL + "/v1/services/web/status?credential=secret")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	st := decode[StatusView](t, resp)
	if !st.Healthy || st.State != "active" || len(st.Nodes) != 2 {
		t.Fatalf("status view = %+v", st)
	}
	// Foreign credentials are rejected.
	resp2, err := http.Get(srv.URL + "/v1/services/web/status?credential=wrong")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusUnauthorized {
		t.Fatalf("foreign status = %d, want 401", resp2.StatusCode)
	}
}

func TestAPIPublishValidation(t *testing.T) {
	srv, _ := apiFixture(t)
	if resp := post(t, srv.URL+"/v1/images", PublishRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestAPIProbe(t *testing.T) {
	srv, _ := apiFixture(t)
	publishAndCreate(t, srv, "web", 2)
	resp := post(t, srv.URL+"/v1/services/web/probe", ProbeRequest{Credential: "secret", Requests: 25})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe status = %d", resp.StatusCode)
	}
	pv := decode[ProbeView](t, resp)
	if pv.Completed != 25 || pv.MeanMs <= 0 || pv.P95Ms < pv.MeanMs/2 {
		t.Fatalf("probe view = %+v", pv)
	}
	// Foreign credential rejected.
	resp2 := post(t, srv.URL+"/v1/services/web/probe", ProbeRequest{Credential: "wrong", Requests: 5})
	if resp2.StatusCode != http.StatusUnauthorized {
		t.Fatalf("foreign probe = %d", resp2.StatusCode)
	}
}

func TestAPIAutoscale(t *testing.T) {
	srv, tb := apiFixture(t)

	// 404 until the control loop is enabled.
	resp, err := http.Get(srv.URL + "/autoscale")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("autoscale without loop = %d, want 404", resp.StatusCode)
	}

	tb.EnableAccounting(accounting.Options{})
	tb.EnableAutoscaling(hup.AutoscaleOptions{})

	// A malformed stanza is rejected before any placement happens.
	post(t, srv.URL+"/v1/images", PublishRequest{Name: "web-img", SizeMB: 30, DatasetMB: 4})
	bad := post(t, srv.URL+"/v1/services", CreateRequest{
		Credential: "secret", Name: "web", Image: "web-img", N: 1,
		Autoscale: "min=3 max=1",
	})
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad stanza status = %d, want 400", bad.StatusCode)
	}

	good := post(t, srv.URL+"/v1/services", CreateRequest{
		Credential: "secret", Name: "web", Image: "web-img", N: 1,
		Autoscale: "min=1 max=4 target=0.6",
	})
	if good.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d", good.StatusCode)
	}

	resp2, err := http.Get(srv.URL + "/autoscale")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("autoscale status = %d", resp2.StatusCode)
	}
	view := decode[AutoscaleView](t, resp2)
	if len(view.Services) != 1 {
		t.Fatalf("autoscale view = %+v, want one armed service", view)
	}
	v := view.Services[0]
	if v.Service != "web" || v.Min != 1 || v.Max != 4 {
		t.Fatalf("autoscaler view = %+v", v)
	}
	if v.Capacity < v.Min || v.Capacity > v.Max {
		t.Fatalf("capacity %d outside policy bounds [%d,%d]", v.Capacity, v.Min, v.Max)
	}
	if !strings.Contains(v.Policy, "target=0.60") {
		t.Fatalf("policy rendering = %q", v.Policy)
	}
}

func TestAPIImages(t *testing.T) {
	srv, tb := apiFixture(t)

	// 404 while no daemon retains chunks.
	resp, err := http.Get(srv.URL + "/images")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("images without stores = %d, want 404", resp.StatusCode)
	}

	tb.EnableChunkDistribution(soda.ChunkDistConfig{})
	publishAndCreate(t, srv, "web", 2)

	resp, err = http.Get(srv.URL + "/images")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("images status = %d", resp.StatusCode)
	}
	view := decode[ImagesView](t, resp)
	if !view.Tracker {
		t.Fatal("tracker not reported enabled")
	}
	if len(view.Stores) != len(tb.Daemons) {
		t.Fatalf("stores = %d, want %d", len(view.Stores), len(tb.Daemons))
	}
	var chunks int
	for _, s := range view.Stores {
		chunks += s.Chunks
	}
	if chunks == 0 {
		t.Fatal("no chunks reported after a prime")
	}
	if len(view.Holders) != 1 || view.Holders[0].Image != "web-img" {
		t.Fatalf("holders = %+v, want one entry for web-img", view.Holders)
	}
	h := view.Holders[0]
	if h.ChunkTotal <= 0 || h.FullHolders < 1 || len(h.PerHost) < 1 {
		t.Fatalf("holder view = %+v", h)
	}
}

// TestLogsHugeNAnswers asks /logs for more records than fit in memory:
// the tail is bounded by the flight ring, so the request succeeds.
func TestLogsHugeNAnswers(t *testing.T) {
	srv, tb := apiFixture(t)
	tb.EnableFlightRecorder()
	resp, err := http.Get(srv.URL + "/logs?n=" + strconv.Itoa(math.MaxInt))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	decode[LogsView](t, resp)
}
