package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
)

// FuzzCreateJob sends arbitrary bodies to POST /v1/jobs on a daemon with
// one tiny registered graph. Whatever the body, the daemon answers with
// no 5xx and no panic (a panicking handler drops the connection, which
// fails the request), and every 4xx body is a JSON object holding one
// string field, "error". Accepted asynchronous jobs are cancelled at
// once, so the queue never fills.
func FuzzCreateJob(f *testing.F) {
	e := newTestEnv(f, Options{Workers: 2, QueueDepth: 1024})
	id := e.register(f, []byte(k4)).ID
	for _, seed := range []string{
		fmt.Sprintf(`{"graph":%q,"wait":true}`, id),
		fmt.Sprintf(`{"graph":%q,"mode":"list","limit":2,"order":"uniform","seed":3,"wait":true}`, id),
		fmt.Sprintf(`{"graph":%q,"method":"E2","order":"descending"}`, id),
		fmt.Sprintf(`{"graph":%q,"timeout_ms":1e13,"wait":true}`, id),
		fmt.Sprintf(`{"graph":%q,"timeout_ms":-1}`, id),
		fmt.Sprintf(`{"graph":%q,"parts":%d,"workers":2,"mode":"list","wait":true}`, id, MaxParts+1),
		fmt.Sprintf(`{"graph":%q,"kernel":"merge","wait":true}`, id),
		fmt.Sprintf(`{"graph":%q,"mode":"list","lim`, id),
		`{"graph":"sha256:0000","method":"E9"}`,
		`[1,2,3]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		code, out := e.do(t, "POST", "/v1/jobs", body)
		switch {
		case code >= 500:
			t.Fatalf("status %d for body %q: %s", code, body, out)
		case code >= 400:
			var resp map[string]json.RawMessage
			var msg string
			if err := json.Unmarshal(out, &resp); err != nil || len(resp) != 1 ||
				json.Unmarshal(resp["error"], &msg) != nil {
				t.Fatalf("status %d body %q is not {\"error\": string} (request %q)", code, out, body)
			}
		case code == http.StatusAccepted:
			var v JobView
			if err := json.Unmarshal(out, &v); err != nil {
				t.Fatalf("202 body %q: %v", out, err)
			}
			if code, out := e.do(t, "DELETE", "/v1/jobs/"+v.ID, nil); code != http.StatusOK {
				t.Fatalf("cancel %s: status %d: %s", v.ID, code, out)
			}
		}
	})
}
