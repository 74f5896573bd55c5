package jsdsl

import (
	"cmp"
	"crypto/md5"
	"crypto/sha1"
	"encoding/base64"
	"encoding/hex"
	"slices"
	"strings"
)

// builtinFunc is the implementation signature for builtins.
type builtinFunc func(in *Interp, args []Value) (Value, error)

func errArity(name string) error {
	return &RuntimeError{Msg: "wrong number of arguments for " + name}
}

func argString(args []Value, i int) (string, bool) {
	if i >= len(args) {
		return "", false
	}
	return args[i].AsString()
}

func argNumber(args []Value, i int) (float64, bool) {
	if i >= len(args) {
		return 0, false
	}
	return args[i].AsNumber()
}

func argMap(args []Value, i int) (*Map, bool) {
	if i >= len(args) {
		return nil, false
	}
	return args[i].AsMap()
}

func argList(args []Value, i int) (*List, bool) {
	if i >= len(args) {
		return nil, false
	}
	return args[i].AsList()
}

// ParseCookieString parses a document.cookie string ("a=1; b=2") into
// ordered name/value pairs: a repeated name keeps its first position and
// takes its last value.
func ParseCookieString(s string) (names []string, values map[string]string) {
	values = map[string]string{}
	rest := s
	for rest != "" {
		part := rest
		if i := strings.IndexByte(rest, ';'); i >= 0 {
			part, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.IndexByte(part, '=')
		if eq <= 0 {
			continue
		}
		name := strings.TrimSpace(part[:eq])
		if _, dup := values[name]; !dup {
			names = append(names, name)
		}
		values[name] = strings.TrimSpace(part[eq+1:])
	}
	return names, values
}

// docCookie reads document.cookie from the Host into the interpreter's
// pair buffer.
func (in *Interp) docCookie() []CookiePair {
	in.docPairs = in.Host.DocCookie(in.docPairs[:0])
	return in.docPairs
}

// sortedKeys returns m's keys in sorted order, in the interpreter's
// scratch; a nil m has none.
func (in *Interp) sortedKeys(m *Map) []string {
	keys := in.pairKeys[:0]
	if m != nil {
		for k := range m.Entries {
			keys = append(keys, k)
		}
		slices.Sort(keys)
	}
	in.pairKeys = keys
	return keys
}

// sortedPairs returns m's keys in sorted order and their values rendered
// under the byte budget, as the Host's Send and DOMInsert take them. Both
// slices are the interpreter's scratch, overwritten by the next call.
func (in *Interp) sortedPairs(m *Map) (keys, vals []string, err error) {
	keys, vals = in.sortedKeys(m), in.pairVals[:0]
	for _, k := range keys {
		v, err := in.str(m.Entries[k])
		if err != nil {
			return nil, nil, err
		}
		vals = append(vals, v)
	}
	in.pairVals = vals
	return keys, vals, nil
}

// buildAssignment renders a set_cookie(name, value, attrs) call into a
// document.cookie assignment string, under the byte budget. Attributes
// are appended in sorted key order into the interpreter's byte scratch,
// a number's digits in place, so that the string is its one allocation.
// Every attribute value is rendered, and a list or map charged, even
// when its attribute adds nothing.
func (in *Interp) buildAssignment(name, value string, attrs *Map) (string, error) {
	b := append(in.assign[:0], name...)
	b = append(b, '=')
	b = append(b, value...)
	for _, k := range in.sortedKeys(attrs) {
		label := cookieAttr(k)
		start := len(b)
		b = append(b, label...)
		end := len(b)
		var err error
		if b, err = in.appendStr(b, attrs.Entries[k]); err != nil {
			in.assign = b
			return "", err
		}
		switch label {
		case "":
			b = b[:start]
		case secureAttr: // a flag: present only when the value is "true"
			if string(b[end:]) != "true" {
				end = start
			}
			b = b[:end]
		}
	}
	in.assign = b
	return string(b), in.charge(len(b))
}

const secureAttr = "; Secure"

// cookieAttr maps a set_cookie attribute to the label it adds to the
// assignment, followed by its value (secureAttr excepted); it is empty
// for an attribute that adds nothing.
func cookieAttr(key string) string {
	switch strings.ToLower(key) {
	case "path":
		return "; Path="
	case "domain":
		return "; Domain="
	case "max_age", "max-age":
		return "; Max-Age="
	case "expires":
		return "; Expires="
	case "secure":
		return secureAttr
	case "samesite":
		return "; SameSite="
	}
	return ""
}

// appendFunc is the append form of a builtin that makes a string: it
// appends the string to b. A + chain runs the append form of an operand
// that calls the builtin, so the string is never made on its own.
type appendFunc func(in *Interp, b []byte, args []Value) ([]byte, error)

// appendBuiltins holds the append forms; init derives each builtin from
// its append form with stringBuiltin.
var appendBuiltins = map[string]appendFunc{
	"str": func(in *Interp, b []byte, args []Value) ([]byte, error) {
		if len(args) != 1 {
			return b, errArity("str")
		}
		return in.appendStr(b, args[0])
	},
	"rand_id": func(in *Interp, b []byte, args []Value) ([]byte, error) {
		n, ok := argNumber(args, 0)
		if !ok || n < 1 || n > 128 {
			return b, errArity("rand_id")
		}
		return in.Host.AppendRandID(b, int(n)), nil
	},
}

// stringBuiltin is the builtin whose append form is f: it appends on top
// of in.concat, makes the string and pops the bytes.
func stringBuiltin(f appendFunc) builtinFunc {
	return func(in *Interp, args []Value) (Value, error) {
		base := len(in.concat)
		b, err := f(in, in.concat, args)
		in.concat = b[:base]
		if err != nil {
			return Value{}, err
		}
		return Str(string(b[base:])), nil
	}
}

var builtins map[string]builtinFunc

func init() {
	builtins = map[string]builtinFunc{
		// ---- document.cookie surface ----
		"doc_cookie": func(in *Interp, args []Value) (Value, error) {
			var b strings.Builder
			for i, p := range in.docCookie() {
				if i > 0 {
					b.WriteString("; ")
				}
				b.WriteString(p.Name)
				b.WriteByte('=')
				b.WriteString(p.Value)
			}
			return Str(b.String()), nil
		},
		"doc_set_cookie": func(in *Interp, args []Value) (Value, error) {
			s, ok := argString(args, 0)
			if !ok {
				return Value{}, errArity("doc_set_cookie")
			}
			in.Host.SetDocCookie(s)
			return Value{}, nil
		},
		// get_cookie/set_cookie/delete_cookie are library sugar layered
		// on the raw document.cookie property, exactly like the helper
		// functions real tracker SDKs ship. The raw property remains the
		// single interception point.
		"get_cookie": func(in *Interp, args []Value) (Value, error) {
			name, ok := argString(args, 0)
			if !ok {
				return Value{}, errArity("get_cookie")
			}
			// The last pair of a repeated name wins, as it does when
			// the string is parsed.
			pairs := in.docCookie()
			for i := len(pairs) - 1; i >= 0; i-- {
				if pairs[i].Name == name {
					return Str(pairs[i].Value), nil
				}
			}
			return Value{}, nil
		},
		"get_all_cookies": func(in *Interp, args []Value) (Value, error) {
			m := in.newMap()
			for _, p := range in.docCookie() {
				m.Entries[p.Name] = Str(p.Value)
			}
			return MapVal(m), nil
		},
		"set_cookie": func(in *Interp, args []Value) (Value, error) {
			name, ok1 := argString(args, 0)
			if !ok1 || len(args) < 2 {
				return Value{}, errArity("set_cookie")
			}
			value, err := in.str(args[1])
			if err != nil {
				return Value{}, err
			}
			attrs, _ := argMap(args, 2)
			assignment, err := in.buildAssignment(name, value, attrs)
			if err != nil {
				return Value{}, err
			}
			in.Host.SetDocCookie(assignment)
			return Value{}, nil
		},
		"delete_cookie": func(in *Interp, args []Value) (Value, error) {
			name, ok := argString(args, 0)
			if !ok {
				return Value{}, errArity("delete_cookie")
			}
			attrs, _ := argMap(args, 1)
			assignment, err := in.buildAssignment(name, "", attrs)
			if err != nil {
				return Value{}, err
			}
			in.Host.SetDocCookie(assignment + "; Max-Age=0")
			return Value{}, nil
		},

		// ---- CookieStore API ----
		"cookiestore_get": func(in *Interp, args []Value) (Value, error) {
			name, ok := argString(args, 0)
			if !ok {
				return Value{}, errArity("cookiestore_get")
			}
			rec, found := in.Host.CookieStoreGet(name)
			if !found {
				return Value{}, nil
			}
			return MapVal(cookieRecordToMap(in, rec)), nil
		},
		"cookiestore_set": func(in *Interp, args []Value) (Value, error) {
			name, ok1 := argString(args, 0)
			if !ok1 || len(args) < 2 {
				return Value{}, errArity("cookiestore_set")
			}
			value, err := in.str(args[1])
			if err != nil {
				return Value{}, err
			}
			rec := CookieRecord{Name: name, Value: value}
			if attrs, ok := argMap(args, 2); ok {
				for k, v := range attrs.Entries {
					switch strings.ToLower(k) {
					case "domain":
						rec.Domain, err = in.str(v)
					case "path":
						rec.Path, err = in.str(v)
					case "max_age", "max-age":
						if f, ok := v.AsNumber(); ok {
							rec.MaxAge = int64(f)
						}
					case "secure":
						rec.Secure = Truthy(v)
					case "samesite":
						rec.SameSite, err = in.str(v)
					}
					if err != nil {
						return Value{}, err
					}
				}
			}
			in.Host.CookieStoreSet(rec)
			return Value{}, nil
		},

		// ---- network / injection ----
		"send": func(in *Interp, args []Value) (Value, error) {
			url, ok := argString(args, 0)
			if !ok {
				return Value{}, errArity("send")
			}
			m, _ := argMap(args, 1)
			keys, vals, err := in.sortedPairs(m)
			if err != nil {
				return Value{}, err
			}
			in.Host.Send(url, keys, vals)
			return Value{}, nil
		},
		"inject": func(in *Interp, args []Value) (Value, error) {
			src, ok := argString(args, 0)
			if !ok {
				return Value{}, errArity("inject")
			}
			in.Host.Inject(src)
			return Value{}, nil
		},

		// ---- DOM ----
		"dom_set_text": func(in *Interp, args []Value) (Value, error) {
			id, ok1 := argString(args, 0)
			if !ok1 || len(args) < 2 {
				return Value{}, errArity("dom_set_text")
			}
			text, err := in.str(args[1])
			if err != nil {
				return Value{}, err
			}
			return BoolVal(in.Host.DOMSetText(id, text)), nil
		},
		"dom_set_style": func(in *Interp, args []Value) (Value, error) {
			id, ok := argString(args, 0)
			if !ok || len(args) < 3 {
				return Value{}, errArity("dom_set_style")
			}
			prop, perr := in.str(args[1])
			val, verr := in.str(args[2])
			if err := cmp.Or(perr, verr); err != nil {
				return Value{}, err
			}
			return BoolVal(in.Host.DOMSetStyle(id, prop, val)), nil
		},
		"dom_insert": func(in *Interp, args []Value) (Value, error) {
			parent, ok1 := argString(args, 0)
			tag, ok2 := argString(args, 1)
			if !ok1 || !ok2 {
				return Value{}, errArity("dom_insert")
			}
			m, _ := argMap(args, 2)
			keys, vals, err := in.sortedPairs(m)
			if err != nil {
				return Value{}, err
			}
			return BoolVal(in.Host.DOMInsert(parent, tag, keys, vals)), nil
		},
		"dom_remove": func(in *Interp, args []Value) (Value, error) {
			id, ok := argString(args, 0)
			if !ok {
				return Value{}, errArity("dom_remove")
			}
			return BoolVal(in.Host.DOMRemove(id)), nil
		},

		// ---- events / scheduling ----
		"on_click": func(in *Interp, args []Value) (Value, error) {
			c, ok := closureArg(args, 0)
			if !ok {
				return Value{}, errArity("on_click")
			}
			in.Host.OnClick(in.callback(c))
			return Value{}, nil
		},
		"on_click_id": func(in *Interp, args []Value) (Value, error) {
			id, okID := argString(args, 0)
			c, okFn := closureArg(args, 1)
			if !okID || !okFn {
				return Value{}, errArity("on_click_id")
			}
			in.Host.OnClickID(id, in.callback(c))
			return Value{}, nil
		},
		"defer_run": func(in *Interp, args []Value) (Value, error) {
			c, ok := closureArg(args, 0)
			if !ok {
				return Value{}, errArity("defer_run")
			}
			in.Host.DeferRun(in.callback(c))
			return Value{}, nil
		},

		// ---- environment ----
		"now_ms": func(in *Interp, args []Value) (Value, error) {
			return Num(float64(in.Host.NowMillis())), nil
		},
		"page_url": func(in *Interp, args []Value) (Value, error) {
			return Str(in.Host.PageURL()), nil
		},
		"log": func(in *Interp, args []Value) (Value, error) {
			s, err := in.join(args, " ")
			if err != nil {
				return Value{}, err
			}
			in.Host.Log(s)
			return Value{}, nil
		},

		// ---- pure string/number helpers ----
		"len": func(in *Interp, args []Value) (Value, error) {
			if len(args) != 1 {
				return Value{}, errArity("len")
			}
			v := args[0]
			switch v.Kind() {
			case KindString:
				return Num(float64(len(v.str))), nil
			case KindNull:
				return Num(0), nil
			case KindRef:
				if l, ok := v.AsList(); ok {
					return Num(float64(len(l.Elems))), nil
				}
				if m, ok := v.AsMap(); ok {
					return Num(float64(len(m.Entries))), nil
				}
			}
			return Value{}, &RuntimeError{Msg: "len of unsupported type"}
		},
		"split": func(in *Interp, args []Value) (Value, error) {
			s, ok1 := argString(args, 0)
			sep, ok2 := argString(args, 1)
			if !ok1 || !ok2 {
				return Value{}, errArity("split")
			}
			if err := in.charge((strings.Count(s, sep) + 1) * valueBytes); err != nil {
				return Value{}, err
			}
			l := &List{}
			for _, part := range strings.Split(s, sep) {
				l.Elems = append(l.Elems, Str(part))
			}
			return ListVal(l), nil
		},
		"join": func(in *Interp, args []Value) (Value, error) {
			list, ok := argList(args, 0)
			sep, ok2 := argString(args, 1)
			if !ok || !ok2 {
				return Value{}, errArity("join")
			}
			s, err := in.join(list.Elems, sep)
			if err != nil {
				return Value{}, err
			}
			return Str(s), nil
		},
		"starts_with": func(in *Interp, args []Value) (Value, error) {
			s, ok1 := argString(args, 0)
			p, ok2 := argString(args, 1)
			if !ok1 || !ok2 {
				return Value{}, errArity("starts_with")
			}
			return BoolVal(strings.HasPrefix(s, p)), nil
		},

		// ---- encodings (the exfiltration obfuscations of §4.4) ----
		"b64": func(in *Interp, args []Value) (Value, error) {
			s, ok := argString(args, 0)
			if !ok {
				return Value{}, errArity("b64")
			}
			if err := in.charge(base64.StdEncoding.EncodedLen(len(s))); err != nil {
				return Value{}, err
			}
			return Str(base64.StdEncoding.EncodeToString([]byte(s))), nil
		},
		"md5": func(in *Interp, args []Value) (Value, error) {
			s, ok := argString(args, 0)
			if !ok {
				return Value{}, errArity("md5")
			}
			sum := md5.Sum([]byte(s))
			return Str(hex.EncodeToString(sum[:])), nil
		},
		"sha1": func(in *Interp, args []Value) (Value, error) {
			s, ok := argString(args, 0)
			if !ok {
				return Value{}, errArity("sha1")
			}
			sum := sha1.Sum([]byte(s))
			return Str(hex.EncodeToString(sum[:])), nil
		},

		// ---- collections ----
		"push": func(in *Interp, args []Value) (Value, error) {
			l, ok := argList(args, 0)
			if len(args) < 2 || !ok {
				return Value{}, errArity("push")
			}
			if err := in.charge(valueBytes); err != nil {
				return Value{}, err
			}
			l.Elems = append(l.Elems, args[1])
			return ListVal(l), nil
		},
	}
	for name, f := range appendBuiltins {
		builtins[name] = stringBuiltin(f)
	}
}

// join renders vals separated by sep under the byte budget: each value
// is rendered (and charged, when it is a list or map) first, then the
// joined string is charged before it is built.
func (in *Interp) join(vals []Value, sep string) (string, error) {
	parts := make([]string, len(vals))
	n := len(sep) * max(len(vals)-1, 0)
	for i, v := range vals {
		s, err := in.str(v)
		if err != nil {
			return "", err
		}
		parts[i] = s
		n += len(s)
	}
	if err := in.charge(n); err != nil {
		return "", err
	}
	return strings.Join(parts, sep), nil
}

func closureArg(args []Value, i int) (*Closure, bool) {
	if i >= len(args) {
		return nil, false
	}
	return args[i].AsClosure()
}

func cookieRecordToMap(in *Interp, rec CookieRecord) *Map {
	m := in.newMap()
	m.Entries["name"] = Str(rec.Name)
	m.Entries["value"] = Str(rec.Value)
	m.Entries["domain"] = Str(rec.Domain)
	m.Entries["path"] = Str(rec.Path)
	return m
}
