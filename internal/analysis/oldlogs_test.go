package analysis

import (
	"encoding/json"
	"strings"
	"testing"

	"cookieguard/internal/instrument"
)

// oldFormatLine is one visit record as crawls wrote it while reads still
// recorded the cookies they returned (value), every cookie event its
// attribution stack, and every script record its parent. The reader
// script, injected by the setter, exfiltrates the setter's _uid,
// overwrites its _ga, and reads through document.cookie, cookieStore.get
// and cookieStore.getAll.
const oldFormatLine = `{"site":"shop.example","url":"https://www.shop.example/","ok":true,` +
	`"cookies":[` +
	`{"op":"write","api":"document.cookie","name":"_uid","value":"uid4433236411aa","max_age":3600,"script_url":"https://cdn.tracker.example/set.js","script_domain":"tracker.example","stack":["https://cdn.tracker.example/set.js"],"main_frame":true},` +
	`{"op":"write","api":"document.cookie","name":"_ga","value":"GA1.1.444332364.1746838827","max_age":3600,"script_url":"https://cdn.tracker.example/set.js","script_domain":"tracker.example","stack":["https://cdn.tracker.example/set.js"],"main_frame":true},` +
	`{"op":"write","api":"cookieStore","name":"cs_id","value":"csvalue1234567","max_age":600,"script_url":"https://cdn.tracker.example/set.js","script_domain":"tracker.example","stack":["https://cdn.tracker.example/set.js"],"main_frame":true},` +
	`{"op":"read","api":"document.cookie","value":"_uid=uid4433236411aa; _ga=GA1.1.444332364.1746838827; cs_id=csvalue1234567","script_url":"https://cdn.other.example/read.js","script_domain":"other.example","stack":["https://cdn.other.example/read.js"],"main_frame":true},` +
	`{"op":"read","api":"cookieStore","name":"cs_id","value":"cs_id=csvalue1234567","script_url":"https://cdn.other.example/read.js","script_domain":"other.example","stack":["https://cdn.other.example/read.js"],"main_frame":true},` +
	`{"op":"read","api":"cookieStore","value":"_uid=uid4433236411aa; _ga=GA1.1.444332364.1746838827; cs_id=csvalue1234567","script_url":"https://cdn.other.example/read.js","script_domain":"other.example","stack":["https://cdn.other.example/read.js"],"main_frame":true},` +
	`{"op":"write","api":"document.cookie","name":"_ga","value":"GA1.1.999999999.1746838827","max_age":7200,"script_url":"https://cdn.other.example/read.js","script_domain":"other.example","stack":["https://cdn.other.example/read.js"],"main_frame":true}],` +
	`"requests":[` +
	`{"url":"https://www.shop.example/","kind":"document","main_frame":true},` +
	`{"url":"https://cdn.tracker.example/set.js","kind":"script","main_frame":true},` +
	`{"url":"https://cdn.other.example/read.js","kind":"script","main_frame":true},` +
	`{"url":"https://px.dest.example/t?u=dWlkNDQzMzIzNjQxMWFh","kind":"beacon","initiator_script":"https://cdn.other.example/read.js","initiator_domain":"other.example","main_frame":true}],` +
	`"scripts":[` +
	`{"url":"https://cdn.tracker.example/set.js","domain":"tracker.example"},` +
	`{"url":"https://cdn.other.example/read.js","domain":"other.example","parent":"https://cdn.tracker.example/set.js","inclusion_path":["https://cdn.tracker.example/set.js"]}],` +
	`"timing":{"DOMInteractive":12,"DOMContentLoaded":20,"LoadEvent":41}}`

// dropRemovedFields rewrites a record line without a read's value, any
// cookie event's stack and any script's parent, which gives the line
// crawls wrote until reads were counted (perCall), and then with each
// script's reads through one API collapsed into one entry without a
// name, counted and placed at the first read: the line a crawl writes
// today for the same visit.
func dropRemovedFields(t *testing.T, line string) (perCall, today string) {
	t.Helper()
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatal(err)
	}
	for _, c := range rec["cookies"].([]any) {
		ev := c.(map[string]any)
		if ev["op"] == "read" {
			delete(ev, "value")
		}
		delete(ev, "stack")
	}
	for _, s := range rec["scripts"].([]any) {
		delete(s.(map[string]any), "parent")
	}
	encode := func() string {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	perCall = encode()

	var counted []any
	first := map[[4]any]map[string]any{}
	for _, c := range rec["cookies"].([]any) {
		ev := c.(map[string]any)
		if ev["op"] != "read" {
			counted = append(counted, ev)
			continue
		}
		key := [4]any{ev["script_url"], ev["inline"], ev["main_frame"], ev["api"]}
		if e, ok := first[key]; ok {
			e["count"] = e["count"].(int) + 1
			continue
		}
		delete(ev, "name")
		ev["count"] = 1
		first[key] = ev
		counted = append(counted, ev)
	}
	rec["cookies"] = counted
	return perCall, encode()
}

// TestOldFormatLogsFoldIdentically: a log written before reads lost their
// value, events their stack and scripts their parent, the same log as
// crawls wrote it until reads were counted, and the same log with
// counted reads all decode (as cmd/analyze decodes each line) and fold to
// the same StableJSON, so logs from any of these formats analyze the
// same.
func TestOldFormatLogsFoldIdentically(t *testing.T) {
	fold := func(line string) ([]byte, *Results) {
		t.Helper()
		var v instrument.VisitLog
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatal(err)
		}
		an := New()
		an.Observe(v)
		res := an.Finalize()
		return stableBytes(t, res), res
	}
	perCallLine, newLine := dropRemovedFields(t, oldFormatLine)
	if len(perCallLine) >= len(oldFormatLine) || len(newLine) >= len(perCallLine) {
		t.Fatalf("dropping the removed fields and collapsing reads did not shorten the line:\n%s\n%s", perCallLine, newLine)
	}
	if !strings.Contains(newLine, `"count":2`) {
		t.Fatalf("the two cookieStore reads were not counted as one entry:\n%s", newLine)
	}
	oldBytes, res := fold(oldFormatLine)
	evs := allEvents(res)
	for name, line := range map[string]string{"per-call": perCallLine, "counted": newLine} {
		if got, _ := fold(line); string(got) != string(oldBytes) {
			t.Fatalf("%s line folds differently from the old-format line:\nold: %s\n%s: %s", name, oldBytes, name, got)
		}
	}
	kinds := map[ActionKind]bool{}
	for _, e := range evs {
		kinds[e.Kind] = true
	}
	s := res.Summary
	if s.SitesComplete != 1 || s.SitesUsingDocCookie != 1 || s.SitesUsingCookieStore != 1 ||
		!kinds[ActExfiltration] || !kinds[ActOverwriting] {
		t.Errorf("fixture exercises too little: summary %+v, events %+v", s, evs)
	}
}
