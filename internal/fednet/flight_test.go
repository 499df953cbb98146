package fednet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"adaptivefl/internal/obs"
	"adaptivefl/internal/prune"
)

// TestFlightHeaderRoundTrip pins the cross-process correlation contract:
// TrainFlight sends the flight ID as the Fednet-Flight request header, the
// agent echoes it on the response, both sides log a wall record carrying
// that ID, and a plain TrainDispatch sends no header at all.
func TestFlightHeaderRoundTrip(t *testing.T) {
	mcfg := testModelCfg()
	pcfg := prune.Config{P: 3}
	clients := buildClients(t, 1)
	clients[0].Device.Jitter = 0
	agent, err := NewAgent(clients[0], mcfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}

	// Both headers are captured before the response goes out: once it
	// has, the client may read the slices below before this handler runs
	// another line.
	var mu sync.Mutex
	var reqHeaders, respHeaders []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		reqHeaders = append(reqHeaders, r.Header.Get(FlightHeader))
		mu.Unlock()
		agent.ServeHTTP(&headerTap{ResponseWriter: w, seen: func(h http.Header) {
			mu.Lock()
			respHeaders = append(respHeaders, h.Get(FlightHeader))
			mu.Unlock()
		}}, r)
	}))
	defer ts.Close()

	pool, err := prune.BuildPool(mcfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	trainer := NewHTTPTrainer([]string{ts.URL}, pool, quickTrain())

	var wallBuf bytes.Buffer
	wall := obs.NewJSONLWriter(&wallBuf)
	trainer.Wall = wall
	agent.Wall = wall

	global := buildGlobal(t, mcfg)
	if _, err := trainer.TrainFlight(7, 0, pool.Members[0], global, 99); err != nil {
		t.Fatal(err)
	}
	if _, err := trainer.TrainDispatch(0, pool.Members[0], global, 99); err != nil {
		t.Fatal(err)
	}
	if err := wall.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if want := []string{"7", ""}; len(reqHeaders) != 2 || reqHeaders[0] != want[0] || reqHeaders[1] != want[1] {
		t.Fatalf("request flight headers = %q; want %q", reqHeaders, want)
	}
	if len(respHeaders) != 2 {
		t.Fatalf("response flight headers = %q; want two", respHeaders)
	}
	if respHeaders[0] != "7" {
		t.Fatalf("response did not echo the flight header: %q", respHeaders[0])
	}
	if respHeaders[1] != "" {
		t.Fatalf("flightless dispatch got an echoed header: %q", respHeaders[1])
	}

	// Both sides logged the flight-7 dispatch under its ID; the bare
	// TrainDispatch logged with flight 0.
	byKey := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(wallBuf.String()), "\n") {
		var rec obs.WallRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("wall line %q: %v", line, err)
		}
		if rec.Kind != obs.WallKind || rec.Route != "train" {
			t.Fatalf("unexpected wall record %+v", rec)
		}
		if rec.Seconds <= 0 {
			t.Fatalf("wall record without a duration: %+v", rec)
		}
		byKey[rec.Side+"/"+strconv.FormatInt(rec.Flight, 10)]++
	}
	for _, key := range []string{"server/7", "agent/7", "server/0", "agent/0"} {
		if byKey[key] != 1 {
			t.Fatalf("wall records by side/flight = %v; want one each of server/7 agent/7 server/0 agent/0", byKey)
		}
	}
	if agentInst := agent.Instance(); agentInst == "" {
		t.Fatal("agent instance empty")
	}
}

// headerTap reports the response headers once, just before they are sent.
type headerTap struct {
	http.ResponseWriter
	once sync.Once
	seen func(http.Header)
}

func (t *headerTap) WriteHeader(code int) {
	t.once.Do(func() { t.seen(t.Header()) })
	t.ResponseWriter.WriteHeader(code)
}

func (t *headerTap) Write(p []byte) (int, error) {
	t.once.Do(func() { t.seen(t.Header()) })
	return t.ResponseWriter.Write(p)
}

// TestAgentWallRecordBeforeResponse pins the agent's wall-record
// contract: the record of a request is written before its response, so a
// caller that closes the wall log as soon as the last response arrives
// loses nothing.
func TestAgentWallRecordBeforeResponse(t *testing.T) {
	mcfg := testModelCfg()
	pcfg := prune.Config{P: 3}
	clients := buildClients(t, 1)
	clients[0].Device.Jitter = 0
	agent, err := NewAgent(clients[0], mcfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(agent)
	defer ts.Close()
	pool, err := prune.BuildPool(mcfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	trainer := NewHTTPTrainer([]string{ts.URL}, pool, quickTrain())
	global := buildGlobal(t, mcfg)

	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		wall := obs.NewJSONLWriter(&buf)
		agent.Wall = wall
		if _, err := trainer.TrainFlight(int64(i+1), 0, pool.Members[0], global, 99); err != nil {
			t.Fatal(err)
		}
		if err := wall.Close(); err != nil {
			t.Fatal(err)
		}
		if d := wall.Dropped(); d != 0 {
			t.Fatalf("flight %d: %d wall records dropped at close", i+1, d)
		}
		if !strings.Contains(buf.String(), `"side":"agent"`) {
			t.Fatalf("flight %d: no agent wall record before close: %q", i+1, buf.String())
		}
	}
}
