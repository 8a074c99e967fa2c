package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"hpm/internal/spatial"
)

// reqIDHeader carries a traced request's id to the server middleware.
const reqIDHeader = "X-Request-Id"

// client is the generator's HTTP client: one transport capped at conns
// connections to the node under test.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string // http://addr of the current node
}

func newClient(conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     30 * time.Second,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// call sends one request over the socket and, on 200, decodes the body
// strictly into out. It returns the status and the response size;
// err reports transport failures and bodies of the wrong shape.
func (c *client) call(ctx context.Context, method, path string, body []byte, reqID int64, out any) (int, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID > 0 {
		req.Header.Set(reqIDHeader, strconv.FormatInt(reqID, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, len(data), err
	}
	return resp.StatusCode, len(data), decodeOK(resp.StatusCode, data, out)
}

// serveInProcess sends one request through the handler without a socket.
func serveInProcess(h http.Handler, method, path string, body []byte, out any) (int, int, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	data := rec.Body.Bytes()
	return rec.Code, len(data), decodeOK(rec.Code, data, out)
}

// decodeOK decodes a 200 body into out, rejecting unknown fields.
func decodeOK(status int, data []byte, out any) error {
	if status != http.StatusOK || out == nil {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		return fmt.Errorf("%w: response shape: %v", errCheck, err)
	}
	return nil
}

// ready polls /readyz until the node answers 200.
func (c *client) ready(ctx context.Context) error {
	var last error
	for i := 0; i < 50; i++ {
		status, _, err := c.call(ctx, http.MethodGet, "/readyz", nil, 0, nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		last = fmt.Errorf("readyz: status %d, err %v", status, err)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		time.Sleep(20 * time.Millisecond)
	}
	return last
}

// Wire shapes of the responses the generator validates.
type observeResp struct {
	Now      *int  `json:"now"`
	Trained  *bool `json:"trained"`
	Training *bool `json:"training"`
}

type bulkResp struct {
	Objects *int `json:"objects"`
	Points  *int `json:"points"`
}

type regionJSON struct {
	MinX float64 `json:"minX"`
	MinY float64 `json:"minY"`
	MaxX float64 `json:"maxX"`
	MaxY float64 `json:"maxY"`
}

type predJSON struct {
	X          float64     `json:"x"`
	Y          float64     `json:"y"`
	Source     string      `json:"source"`
	Path       string      `json:"path"`
	Score      float64     `json:"score"`
	Confidence float64     `json:"confidence"`
	Region     *regionJSON `json:"region"`
}

type predictResp struct {
	Tq          *int       `json:"tq"`
	Predictions []predJSON `json:"predictions"`
}

type batchResp struct {
	Results []struct {
		Tq          int        `json:"tq"`
		Predictions []predJSON `json:"predictions"`
	} `json:"results"`
}

type fleetJSON struct {
	ID      string  `json:"id"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	Path    string  `json:"path"`
	Horizon int     `json:"horizon"`
	Dist    float64 `json:"dist"`
}

// fleetJSONOf renders store fleet-query results in their wire form.
func fleetJSONOf(rs []spatial.Result) []fleetJSON {
	out := make([]fleetJSON, len(rs))
	for i, s := range rs {
		out[i] = fleetJSON{ID: s.ID, X: s.Pos.X, Y: s.Pos.Y, Path: s.Path, Horizon: s.Horizon, Dist: s.Dist}
	}
	return out
}

type fleetResp struct {
	Horizon *int        `json:"horizon"`
	Results []fleetJSON `json:"results"`
}

// validPrediction checks one prediction's shape.
func validPrediction(p predJSON) error {
	if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
		return fmt.Errorf("non-finite prediction (%v, %v)", p.X, p.Y)
	}
	switch p.Source {
	case "pattern", "markov":
		if p.Region == nil {
			return fmt.Errorf("%s prediction without region", p.Source)
		}
	case "motion":
	default:
		return fmt.Errorf("unknown source %q", p.Source)
	}
	switch p.Path {
	case "forward", "backward", "markov", "fallback":
	default:
		return fmt.Errorf("unknown path %q", p.Path)
	}
	return nil
}
