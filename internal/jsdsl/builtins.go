package jsdsl

import (
	"crypto/md5"
	"crypto/sha1"
	"encoding/base64"
	"encoding/hex"
	"math"
	"strconv"
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

// stringMap converts a script Map into map[string]string via ToString.
func stringMap(m *Map) map[string]string {
	out := make(map[string]string, len(m.Entries))
	for k, v := range m.Entries {
		out[k] = ToString(v)
	}
	return out
}

// ParseCookieString parses a document.cookie string ("a=1; b=2") into
// name/value pairs: names in first-occurrence order, the last value of
// a repeated name winning, both trimmed of surrounding whitespace, and
// segments without a name skipped.
func ParseCookieString(s string) (names []string, values map[string]string) {
	return ParseCookieStringInto(s, nil, nil)
}

// ParseCookieStringInto is ParseCookieString reusing the caller's slice
// (appended to) and map (cleared). The interpreter's memo and the
// guard's document.cookie filter pass their previous buffers back in so
// a changed cookie string re-parses without reallocating. Segments are
// walked in place; strings.Split here was one of the crawl's dominant
// allocation sites.
func ParseCookieStringInto(s string, names []string, values map[string]string) ([]string, map[string]string) {
	if values == nil {
		values = map[string]string{}
	} else {
		clear(values)
	}
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

// buildAssignment renders a set_cookie(name, value, attrs) call into a
// document.cookie assignment string.
func buildAssignment(name, value string, attrs *Map) string {
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('=')
	b.WriteString(value)
	if attrs != nil {
		for _, k := range attrs.Keys() {
			v := ToString(attrs.Entries[k])
			switch strings.ToLower(k) {
			case "path":
				b.WriteString("; Path=" + v)
			case "domain":
				b.WriteString("; Domain=" + v)
			case "max_age", "max-age":
				b.WriteString("; Max-Age=" + v)
			case "expires":
				b.WriteString("; Expires=" + v)
			case "secure":
				if v == "true" {
					b.WriteString("; Secure")
				}
			case "samesite":
				b.WriteString("; SameSite=" + v)
			}
		}
	}
	return b.String()
}

var builtins map[string]builtinFunc

func init() {
	builtins = map[string]builtinFunc{
		// ---- document.cookie surface ----
		"doc_cookie": func(in *Interp, args []Value) (Value, error) {
			return Str(in.Host.DocCookie()), nil
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
			_, vals := in.parsedDocCookie(in.Host.DocCookie())
			if v, ok := vals[name]; ok {
				return Str(v), nil
			}
			return Value{}, nil
		},
		"get_all_cookies": func(in *Interp, args []Value) (Value, error) {
			names, vals := in.parsedDocCookie(in.Host.DocCookie())
			m := in.newMap()
			for _, n := range names {
				m.Entries[n] = Str(vals[n])
			}
			return MapVal(m), nil
		},
		"set_cookie": func(in *Interp, args []Value) (Value, error) {
			name, ok1 := argString(args, 0)
			if !ok1 || len(args) < 2 {
				return Value{}, errArity("set_cookie")
			}
			value := ToString(args[1])
			attrs, _ := argMap(args, 2)
			in.Host.SetDocCookie(buildAssignment(name, value, attrs))
			return Value{}, nil
		},
		"delete_cookie": func(in *Interp, args []Value) (Value, error) {
			name, ok := argString(args, 0)
			if !ok {
				return Value{}, errArity("delete_cookie")
			}
			attrs, _ := argMap(args, 1)
			assignment := buildAssignment(name, "", attrs) + "; Max-Age=0"
			in.Host.SetDocCookie(assignment)
			return Value{}, nil
		},
		"parse_cookies": func(in *Interp, args []Value) (Value, error) {
			s, ok := argString(args, 0)
			if !ok {
				return Value{}, errArity("parse_cookies")
			}
			names, vals := ParseCookieString(s)
			m := in.newMap()
			for _, n := range names {
				m.Entries[n] = Str(vals[n])
			}
			return MapVal(m), nil
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
		"cookiestore_get_all": func(in *Interp, args []Value) (Value, error) {
			recs := in.Host.CookieStoreGetAll()
			l := &List{}
			for _, rec := range recs {
				l.Elems = append(l.Elems, MapVal(cookieRecordToMap(in, rec)))
			}
			return ListVal(l), nil
		},
		"cookiestore_set": func(in *Interp, args []Value) (Value, error) {
			name, ok1 := argString(args, 0)
			if !ok1 || len(args) < 2 {
				return Value{}, errArity("cookiestore_set")
			}
			rec := CookieRecord{Name: name, Value: ToString(args[1])}
			if attrs, ok := argMap(args, 2); ok {
				for k, v := range attrs.Entries {
					switch strings.ToLower(k) {
					case "domain":
						rec.Domain = ToString(v)
					case "path":
						rec.Path = ToString(v)
					case "max_age", "max-age":
						if f, ok := v.AsNumber(); ok {
							rec.MaxAge = int64(f)
						}
					case "secure":
						rec.Secure = Truthy(v)
					case "samesite":
						rec.SameSite = ToString(v)
					}
				}
			}
			in.Host.CookieStoreSet(rec)
			return Value{}, nil
		},
		"cookiestore_delete": func(in *Interp, args []Value) (Value, error) {
			name, ok := argString(args, 0)
			if !ok {
				return Value{}, errArity("cookiestore_delete")
			}
			in.Host.CookieStoreDelete(name)
			return Value{}, nil
		},

		// ---- network / injection ----
		"send": func(in *Interp, args []Value) (Value, error) {
			url, ok := argString(args, 0)
			if !ok {
				return Value{}, errArity("send")
			}
			params := map[string]string{}
			if m, ok := argMap(args, 1); ok {
				params = stringMap(m)
			}
			in.Host.Send(url, params)
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
			return BoolVal(in.Host.DOMSetText(id, ToString(args[1]))), nil
		},
		"dom_set_attr": func(in *Interp, args []Value) (Value, error) {
			id, ok := argString(args, 0)
			if !ok || len(args) < 3 {
				return Value{}, errArity("dom_set_attr")
			}
			return BoolVal(in.Host.DOMSetAttr(id, ToString(args[1]), ToString(args[2]))), nil
		},
		"dom_set_style": func(in *Interp, args []Value) (Value, error) {
			id, ok := argString(args, 0)
			if !ok || len(args) < 3 {
				return Value{}, errArity("dom_set_style")
			}
			return BoolVal(in.Host.DOMSetStyle(id, ToString(args[1]), ToString(args[2]))), nil
		},
		"dom_insert": func(in *Interp, args []Value) (Value, error) {
			parent, ok1 := argString(args, 0)
			tag, ok2 := argString(args, 1)
			if !ok1 || !ok2 {
				return Value{}, errArity("dom_insert")
			}
			attrs := map[string]string{}
			if m, ok := argMap(args, 2); ok {
				attrs = stringMap(m)
			}
			return BoolVal(in.Host.DOMInsert(parent, tag, attrs)), nil
		},
		"dom_remove": func(in *Interp, args []Value) (Value, error) {
			id, ok := argString(args, 0)
			if !ok {
				return Value{}, errArity("dom_remove")
			}
			return BoolVal(in.Host.DOMRemove(id)), nil
		},
		"dom_get_text": func(in *Interp, args []Value) (Value, error) {
			id, ok := argString(args, 0)
			if !ok {
				return Value{}, errArity("dom_get_text")
			}
			text, found := in.Host.DOMGetText(id)
			if !found {
				return Value{}, nil
			}
			return Str(text), nil
		},

		// ---- events / scheduling ----
		"on_click": func(in *Interp, args []Value) (Value, error) {
			c, ok := closureArg(args, 0)
			if !ok {
				return Value{}, errArity("on_click")
			}
			in.Host.OnClick(func() { _, _ = in.callClosure(c, nil, 0) })
			return Value{}, nil
		},
		"on_click_id": func(in *Interp, args []Value) (Value, error) {
			id, okID := argString(args, 0)
			c, okFn := closureArg(args, 1)
			if !okID || !okFn {
				return Value{}, errArity("on_click_id")
			}
			in.Host.OnClickID(id, func() { _, _ = in.callClosure(c, nil, 0) })
			return Value{}, nil
		},
		"defer_run": func(in *Interp, args []Value) (Value, error) {
			c, ok := closureArg(args, 0)
			if !ok {
				return Value{}, errArity("defer_run")
			}
			in.Host.DeferRun(func() { _, _ = in.callClosure(c, nil, 0) })
			return Value{}, nil
		},

		// ---- environment ----
		"now_ms": func(in *Interp, args []Value) (Value, error) {
			return Num(float64(in.Host.NowMillis())), nil
		},
		"rand_id": func(in *Interp, args []Value) (Value, error) {
			n, ok := argNumber(args, 0)
			if !ok || n < 1 || n > 128 {
				return Value{}, errArity("rand_id")
			}
			return Str(in.Host.RandID(int(n))), nil
		},
		"page_url": func(in *Interp, args []Value) (Value, error) {
			return Str(in.Host.PageURL()), nil
		},
		"log": func(in *Interp, args []Value) (Value, error) {
			parts := make([]string, len(args))
			for i, a := range args {
				parts[i] = ToString(a)
			}
			in.Host.Log(strings.Join(parts, " "))
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
		"str": func(in *Interp, args []Value) (Value, error) {
			if len(args) != 1 {
				return Value{}, errArity("str")
			}
			return Str(ToString(args[0])), nil
		},
		"num": func(in *Interp, args []Value) (Value, error) {
			s, ok := argString(args, 0)
			if !ok {
				if f, ok := argNumber(args, 0); ok {
					return Num(f), nil
				}
				return Value{}, errArity("num")
			}
			f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return Value{}, nil
			}
			return Num(f), nil
		},
		"split": func(in *Interp, args []Value) (Value, error) {
			s, ok1 := argString(args, 0)
			sep, ok2 := argString(args, 1)
			if !ok1 || !ok2 {
				return Value{}, errArity("split")
			}
			l := &List{}
			for _, part := range strings.Split(s, sep) {
				l.Elems = append(l.Elems, Str(part))
			}
			return ListVal(l), nil
		},
		"join": func(in *Interp, args []Value) (Value, error) {
			list, ok := args[0].AsList()
			sep, ok2 := argString(args, 1)
			if len(args) < 2 || !ok || !ok2 {
				return Value{}, errArity("join")
			}
			parts := make([]string, len(list.Elems))
			for i, e := range list.Elems {
				parts[i] = ToString(e)
			}
			return Str(strings.Join(parts, sep)), nil
		},
		"substr": func(in *Interp, args []Value) (Value, error) {
			s, ok := argString(args, 0)
			start, ok2 := argNumber(args, 1)
			if !ok || !ok2 {
				return Value{}, errArity("substr")
			}
			end := float64(len(s))
			if e, ok := argNumber(args, 2); ok {
				end = e
			}
			si, ei := clampIndex(int(start), len(s)), clampIndex(int(end), len(s))
			if si > ei {
				return Str(""), nil
			}
			return Str(s[si:ei]), nil
		},
		"contains": func(in *Interp, args []Value) (Value, error) {
			s, ok1 := argString(args, 0)
			sub, ok2 := argString(args, 1)
			if !ok1 || !ok2 {
				return Value{}, errArity("contains")
			}
			return BoolVal(strings.Contains(s, sub)), nil
		},
		"index_of": func(in *Interp, args []Value) (Value, error) {
			s, ok1 := argString(args, 0)
			sub, ok2 := argString(args, 1)
			if !ok1 || !ok2 {
				return Value{}, errArity("index_of")
			}
			return Num(float64(strings.Index(s, sub))), nil
		},
		"starts_with": func(in *Interp, args []Value) (Value, error) {
			s, ok1 := argString(args, 0)
			p, ok2 := argString(args, 1)
			if !ok1 || !ok2 {
				return Value{}, errArity("starts_with")
			}
			return BoolVal(strings.HasPrefix(s, p)), nil
		},
		"ends_with": func(in *Interp, args []Value) (Value, error) {
			s, ok1 := argString(args, 0)
			p, ok2 := argString(args, 1)
			if !ok1 || !ok2 {
				return Value{}, errArity("ends_with")
			}
			return BoolVal(strings.HasSuffix(s, p)), nil
		},
		"lower": func(in *Interp, args []Value) (Value, error) {
			s, ok := argString(args, 0)
			if !ok {
				return Value{}, errArity("lower")
			}
			return Str(strings.ToLower(s)), nil
		},
		"upper": func(in *Interp, args []Value) (Value, error) {
			s, ok := argString(args, 0)
			if !ok {
				return Value{}, errArity("upper")
			}
			return Str(strings.ToUpper(s)), nil
		},
		"trim": func(in *Interp, args []Value) (Value, error) {
			s, ok := argString(args, 0)
			if !ok {
				return Value{}, errArity("trim")
			}
			return Str(strings.TrimSpace(s)), nil
		},
		"replace": func(in *Interp, args []Value) (Value, error) {
			s, ok1 := argString(args, 0)
			old, ok2 := argString(args, 1)
			nw, ok3 := argString(args, 2)
			if !ok1 || !ok2 || !ok3 {
				return Value{}, errArity("replace")
			}
			return Str(strings.ReplaceAll(s, old, nw)), nil
		},

		// ---- encodings (the exfiltration obfuscations of §4.4) ----
		"b64": func(in *Interp, args []Value) (Value, error) {
			s, ok := argString(args, 0)
			if !ok {
				return Value{}, errArity("b64")
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
		"keys": func(in *Interp, args []Value) (Value, error) {
			m, ok := argMap(args, 0)
			if !ok {
				return Value{}, errArity("keys")
			}
			l := &List{}
			for _, k := range m.Keys() {
				l.Elems = append(l.Elems, Str(k))
			}
			return ListVal(l), nil
		},
		"has": func(in *Interp, args []Value) (Value, error) {
			m, ok := argMap(args, 0)
			k, ok2 := argString(args, 1)
			if !ok || !ok2 {
				return Value{}, errArity("has")
			}
			_, found := m.Entries[k]
			return BoolVal(found), nil
		},
		"push": func(in *Interp, args []Value) (Value, error) {
			l, ok := args[0].AsList()
			if len(args) < 2 || !ok {
				return Value{}, errArity("push")
			}
			l.Elems = append(l.Elems, args[1])
			return ListVal(l), nil
		},
		"range": func(in *Interp, args []Value) (Value, error) {
			n, ok := argNumber(args, 0)
			if !ok || n < 0 || n > 1e6 {
				return Value{}, errArity("range")
			}
			l := &List{}
			for i := 0; i < int(n); i++ {
				l.Elems = append(l.Elems, Num(float64(i)))
			}
			return ListVal(l), nil
		},
		"min": func(in *Interp, args []Value) (Value, error) {
			a, ok1 := argNumber(args, 0)
			b, ok2 := argNumber(args, 1)
			if !ok1 || !ok2 {
				return Value{}, errArity("min")
			}
			return Num(math.Min(a, b)), nil
		},
		"max": func(in *Interp, args []Value) (Value, error) {
			a, ok1 := argNumber(args, 0)
			b, ok2 := argNumber(args, 1)
			if !ok1 || !ok2 {
				return Value{}, errArity("max")
			}
			return Num(math.Max(a, b)), nil
		},
		"floor": func(in *Interp, args []Value) (Value, error) {
			a, ok := argNumber(args, 0)
			if !ok {
				return Value{}, errArity("floor")
			}
			return Num(math.Floor(a)), nil
		},
		"concat": func(in *Interp, args []Value) (Value, error) {
			var b strings.Builder
			for _, a := range args {
				b.WriteString(ToString(a))
			}
			return Str(b.String()), nil
		},
	}
}

func closureArg(args []Value, i int) (*Closure, bool) {
	if i >= len(args) {
		return nil, false
	}
	return args[i].AsClosure()
}

func clampIndex(i, n int) int {
	if i < 0 {
		return 0
	}
	if i > n {
		return n
	}
	return i
}

func cookieRecordToMap(in *Interp, rec CookieRecord) *Map {
	m := in.newMap()
	m.Entries["name"] = Str(rec.Name)
	m.Entries["value"] = Str(rec.Value)
	m.Entries["domain"] = Str(rec.Domain)
	m.Entries["path"] = Str(rec.Path)
	return m
}

// Builtins returns the sorted names of all builtin functions (for docs and
// for the generator's validation of emitted templates).
func Builtins() []string {
	out := make([]string, 0, len(builtins))
	for k := range builtins {
		out = append(out, k)
	}
	sortStrings(out)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
