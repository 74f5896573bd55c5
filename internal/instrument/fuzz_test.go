package instrument

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// fillFromAssignmentOracle is the strings.Split and strings.ToLower
// version of fillFromAssignment, kept as the reference the
// allocation-free one must agree with.
func fillFromAssignmentOracle(ev *CookieEvent, assignment string) {
	parts := strings.Split(assignment, ";")
	nv := strings.TrimSpace(parts[0])
	if eq := strings.IndexByte(nv, '='); eq > 0 {
		ev.Name = strings.TrimSpace(nv[:eq])
		ev.Value = strings.TrimSpace(nv[eq+1:])
	}
	for _, attr := range parts[1:] {
		attr = strings.TrimSpace(attr)
		var key, val string
		if i := strings.IndexByte(attr, '='); i >= 0 {
			key, val = strings.ToLower(strings.TrimSpace(attr[:i])), strings.TrimSpace(attr[i+1:])
		} else {
			key = strings.ToLower(attr)
		}
		switch key {
		case "domain":
			ev.Domain = strings.ToLower(strings.TrimPrefix(val, "."))
		case "path":
			ev.Path = val
		case "max-age":
			if n, err := strconv.ParseInt(val, 10, 64); err == nil {
				ev.MaxAge = n
			}
		}
	}
	if ev.MaxAge < 0 || (ev.MaxAge == 0 && strings.Contains(strings.ToLower(assignment), "max-age")) {
		if explicitZeroMaxAgeOracle(assignment) {
			ev.Op = OpDelete
		}
	}
}

func explicitZeroMaxAgeOracle(assignment string) bool {
	low := strings.ToLower(assignment)
	idx := strings.Index(low, "max-age")
	if idx < 0 {
		return false
	}
	rest := low[idx+len("max-age"):]
	rest = strings.TrimLeft(rest, " =")
	end := strings.IndexByte(rest, ';')
	if end >= 0 {
		rest = rest[:end]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
	return err == nil && n <= 0
}

func FuzzFillFromAssignment(f *testing.F) {
	for _, s := range []string{
		"a=1; Max-Age=3600",
		"a=; Max-Age=0",
		"a=; max-age = -1 ; path=/",
		"a=1",
		"a=1;",
		";",
		"=x; Domain=.Example.COM; Path=/p; MAX-AGE=5",
		"sid=abc; DOMAİN=example.com",
		"sid=abc; Path; Domain",
		"x=1; expires=Thu, 01 Jan 1970 00:00:00 GMT; max-age=0",
		"x=1; Max-Age=1; max-age=0",
		"x=1; İmax-age=0",
		"x=1; max-age=\xff0",
		"x=1; Key=1; max-age=+0",
		"  name = value ; secure ; samesite=Lax ; max-age=10",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, assignment string) {
		got, want := CookieEvent{Op: OpWrite}, CookieEvent{Op: OpWrite}
		fillFromAssignment(&got, assignment)
		fillFromAssignmentOracle(&want, assignment)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fillFromAssignment(%q) = %+v, oracle gives %+v", assignment, got, want)
		}
	})
}

func TestFillFromAssignmentAllocs(t *testing.T) {
	ev := CookieEvent{Op: OpWrite}
	assignment := "_ga=GA1.2.123.456; Path=/; Max-Age=63072000; SameSite=Lax"
	if n := testing.AllocsPerRun(100, func() { fillFromAssignment(&ev, assignment) }); n != 0 {
		t.Errorf("fillFromAssignment: %v allocs, want 0", n)
	}
}
