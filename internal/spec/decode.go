package spec

import (
	"math"
	"reflect"
	"strconv"
	"strings"
)

// decodeDocument converts a value tree into a Document, rejecting unknown
// fields with their source position and a nearest-field suggestion.
func decodeDocument(src string, v *value) (*Document, error) {
	if v.kind != kMap {
		return nil, errf(src, v.line, "", "document must be a mapping, got %s", v.kind)
	}
	doc := &Document{Src: src}
	if err := decodeInto(src, v, "", reflect.ValueOf(doc).Elem()); err != nil {
		return nil, err
	}
	return doc, nil
}

// decodeInto decodes v into out, the field at path. The schema is the Go
// type itself: a struct's document keys are its spec tags, so every
// field is declared once, in spec.go, and every error names its field
// the same way (parent.key, parent[i]).
func decodeInto(src string, v *value, path string, out reflect.Value) error {
	switch out.Kind() {
	case reflect.Pointer:
		p := reflect.New(out.Type().Elem())
		if err := decodeInto(src, v, path, p.Elem()); err != nil {
			return err
		}
		out.Set(p)
	case reflect.Struct:
		return decodeStruct(src, v, path, out)
	case reflect.Slice:
		if v.kind != kList {
			return errf(src, v.line, path, "expected %s, got %s", listNoun(out.Type().Elem()), v.kind)
		}
		s := reflect.MakeSlice(out.Type(), len(v.l), len(v.l))
		for i, it := range v.l {
			if err := decodeInto(src, it, path+"["+strconv.Itoa(i)+"]", s.Index(i)); err != nil {
				return err
			}
		}
		out.Set(s)
	case reflect.Map: // map[string]float64: {name: weight}
		if v.kind != kMap {
			return errf(src, v.line, path, "expected a {name: weight} mapping, got %s", v.kind)
		}
		m := make(map[string]float64, len(v.m))
		for _, e := range v.m {
			if e.val.kind != kNum {
				return errf(src, e.val.line, path+"."+e.key, "expected a number, got %s", e.val.kind)
			}
			m[e.key] = e.val.num
		}
		out.Set(reflect.ValueOf(m))
	case reflect.String:
		if v.kind != kStr {
			return errf(src, v.line, path, "expected a string, got %s", v.kind)
		}
		out.SetString(v.str)
	case reflect.Bool:
		if v.kind != kBool {
			return errf(src, v.line, path, "expected true or false, got %s", v.kind)
		}
		out.SetBool(v.b)
	case reflect.Float64:
		if v.kind != kNum {
			return errf(src, v.line, path, "expected a number, got %s", v.kind)
		}
		out.SetFloat(v.num)
	case reflect.Int, reflect.Int64:
		if v.kind != kNum {
			return errf(src, v.line, path, "expected an integer, got %s", v.kind)
		}
		if v.num != math.Trunc(v.num) {
			return errf(src, v.line, path, "expected an integer, got %s", v.raw)
		}
		out.SetInt(int64(v.num))
	case reflect.Uint64:
		// Parsed from the source text, so seeds above 2^53 survive exactly.
		if v.kind != kNum {
			return errf(src, v.line, path, "expected an unsigned integer, got %s", v.kind)
		}
		u, err := strconv.ParseUint(strings.ReplaceAll(v.raw, "_", ""), 10, 64)
		if err != nil {
			return errf(src, v.line, path, "expected an unsigned integer, got %s", v.raw)
		}
		out.SetUint(u)
	default:
		panic("spec: no decoding for " + out.Type().String())
	}
	return nil
}

// decodeStruct fills the fields of out from the mapping v by their spec
// tags. The field tagged ",line" receives the mapping's source line; a
// key no field declares is rejected with a did-you-mean suggestion.
func decodeStruct(src string, v *value, path string, out reflect.Value) error {
	if v.kind != kMap {
		return errf(src, v.line, path, "expected a mapping, got %s", v.kind)
	}
	t := out.Type()
	byKey := make(map[string]int, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		switch tag := t.Field(i).Tag.Get("spec"); tag {
		case "":
		case ",line":
			out.Field(i).SetInt(int64(v.line))
		default:
			byKey[tag] = i
		}
	}
	for _, e := range v.m {
		i, ok := byKey[e.key]
		if !ok {
			known := make([]string, 0, len(byKey))
			for k := range byKey {
				known = append(known, k)
			}
			msg := "unknown field " + strconv.Quote(e.key)
			if s := nearest(e.key, known); s != "" {
				msg += " (did you mean " + strconv.Quote(s) + "?)"
			}
			return errf(src, e.line, path, "%s", msg)
		}
		fpath := e.key
		if path != "" {
			fpath = path + "." + e.key
		}
		if err := decodeInto(src, e.val, fpath, out.Field(i)); err != nil {
			return err
		}
	}
	return nil
}

// listNoun names what a list of elem holds, for type errors.
func listNoun(elem reflect.Type) string {
	switch elem.Kind() {
	case reflect.Float64:
		return "a list of numbers"
	case reflect.Int:
		return "a list of integers"
	}
	return "a list"
}

// nearest returns the candidate with the smallest edit distance from key,
// when that distance is small enough to be a plausible typo.
func nearest(key string, candidates []string) string {
	best, bestDist := "", 3
	for _, c := range candidates {
		if d := editDistance(key, c); d < bestDist || (d == bestDist && best != "" && c < best) {
			if d < bestDist {
				best, bestDist = c, d
			} else if c < best {
				best = c
			}
		}
	}
	return best
}

// editDistance is the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
