package instrument

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// LogHeader is a crawl log's first line, before its VisitLog records:
// the web they were crawled from, named by the three inputs that
// generate it, as the crawl resolved them. A reader rebuilds the web
// from it to fold the records as the crawl's own pipeline does. It names
// nothing that varies between crawls meant to match, such as workers,
// faults, the guard or vantages.
type LogHeader struct {
	Sites int    `json:"sites"`
	Seed  uint64 `json:"seed"`
	CMP   bool   `json:"cmp"`
}

// Line returns h's line, newline included.
func (h LogHeader) Line() []byte {
	b, _ := json.Marshal(struct {
		Header LogHeader `json:"header"`
	}{h}) // three plain fields: cannot fail
	return append(b, '\n')
}

// ParseLogHeader reads line, the first line of a crawl log. It returns
// ok false and no error for a line that is not a header: the first
// record of a log written without one. A header that does not decode,
// carries a field LogHeader does not know, or names no sites (null
// included) is an error.
func ParseLogHeader(line []byte) (h LogHeader, ok bool, err error) {
	var env struct {
		Header json.RawMessage `json:"header"`
	}
	if err := json.Unmarshal(line, &env); err != nil || env.Header == nil {
		return h, false, err
	}
	dec := json.NewDecoder(bytes.NewReader(env.Header))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&h); err != nil {
		return h, false, fmt.Errorf("log header: %w", err)
	}
	if h.Sites <= 0 {
		return h, false, fmt.Errorf("log header: %d sites", h.Sites)
	}
	return h, true, nil
}
