package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// kind is a value tree node's type.
type kind uint8

const (
	kNull kind = iota
	kBool
	kNum
	kStr
	kMap
	kList
)

func (k kind) String() string {
	switch k {
	case kNull:
		return "null"
	case kBool:
		return "bool"
	case kNum:
		return "number"
	case kStr:
		return "string"
	case kMap:
		return "mapping"
	case kList:
		return "list"
	}
	return "?"
}

// value is one node of the parsed document tree. Scalars keep their source
// text (raw) so integers decode exactly and error messages can quote the
// input; every node carries its 1-based source line for error context.
type value struct {
	kind kind
	line int
	b    bool
	num  float64
	raw  string
	str  string
	m    []entry
	l    []*value
}

// entry is one key of a mapping, in document order.
type entry struct {
	key  string
	line int
	val  *value
}

// get returns the value for key, or nil.
func (v *value) get(key string) *value {
	for i := range v.m {
		if v.m[i].key == key {
			return v.m[i].val
		}
	}
	return nil
}

// Error is a parse or validation failure tied to a source location.
type Error struct {
	// Src is the document name (file path or logical name).
	Src string
	// Line is the 1-based source line (0 when unknown).
	Line int
	// Path locates the offending field: keys join with dots and list
	// items take their index, as in "profiles[2].ipc" or
	// "scenario.clients[0].arrival.cv". Validation names a profile or
	// client by its name or id once it has one ("profiles.mc").
	Path string
	// Msg describes the failure.
	Msg string
}

func (e *Error) Error() string {
	var b strings.Builder
	b.WriteString(e.Src)
	if e.Line > 0 {
		fmt.Fprintf(&b, ":%d", e.Line)
	}
	b.WriteString(": ")
	if e.Path != "" {
		b.WriteString(e.Path)
		b.WriteString(": ")
	}
	b.WriteString(e.Msg)
	return b.String()
}

// errf builds an *Error for a document position.
func errf(src string, line int, path, format string, args ...any) error {
	return &Error{Src: src, Line: line, Path: path, Msg: fmt.Sprintf(format, args...)}
}

// parseTree parses data — JSON when the first non-space byte is '{',
// otherwise the YAML subset — into a value tree.
func parseTree(src string, data []byte) (*value, error) {
	for _, c := range data {
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		case '{':
			return parseJSONTree(src, data)
		}
		break
	}
	return parseYAMLTree(src, data)
}

// --- JSON ---

// parseJSONTree builds the value tree from JSON, mapping byte offsets back
// to source lines for error context.
func parseJSONTree(src string, data []byte) (*value, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	lineAt := func() int {
		off := dec.InputOffset()
		line := 1
		for i := int64(0); i < off && i < int64(len(data)); i++ {
			if data[i] == '\n' {
				line++
			}
		}
		return line
	}
	v, err := parseJSONValue(src, dec, lineAt)
	if err != nil {
		return nil, err
	}
	if tok, err := dec.Token(); err != io.EOF {
		return nil, errf(src, lineAt(), "", "trailing content after document: %v", tok)
	}
	return v, nil
}

func parseJSONValue(src string, dec *json.Decoder, lineAt func() int) (*value, error) {
	tok, err := dec.Token()
	if err != nil {
		return nil, errf(src, lineAt(), "", "invalid JSON: %v", err)
	}
	line := lineAt()
	switch t := tok.(type) {
	case json.Delim:
		switch t {
		case '{':
			v := &value{kind: kMap, line: line}
			for dec.More() {
				ktok, err := dec.Token()
				if err != nil {
					return nil, errf(src, lineAt(), "", "invalid JSON: %v", err)
				}
				key, _ := ktok.(string)
				kline := lineAt()
				child, err := parseJSONValue(src, dec, lineAt)
				if err != nil {
					return nil, err
				}
				for _, e := range v.m {
					if e.key == key {
						return nil, errf(src, kline, "", "duplicate key %q", key)
					}
				}
				v.m = append(v.m, entry{key: key, line: kline, val: child})
			}
			if _, err := dec.Token(); err != nil { // consume '}'
				return nil, errf(src, lineAt(), "", "invalid JSON: %v", err)
			}
			return v, nil
		case '[':
			v := &value{kind: kList, line: line}
			for dec.More() {
				child, err := parseJSONValue(src, dec, lineAt)
				if err != nil {
					return nil, err
				}
				v.l = append(v.l, child)
			}
			if _, err := dec.Token(); err != nil { // consume ']'
				return nil, errf(src, lineAt(), "", "invalid JSON: %v", err)
			}
			return v, nil
		}
		return nil, errf(src, line, "", "unexpected delimiter %v", t)
	case string:
		return &value{kind: kStr, line: line, str: t, raw: t}, nil
	case json.Number:
		f, err := t.Float64()
		if err != nil {
			return nil, errf(src, line, "", "bad number %q", t.String())
		}
		return &value{kind: kNum, line: line, num: f, raw: t.String()}, nil
	case bool:
		return &value{kind: kBool, line: line, b: t}, nil
	case nil:
		return &value{kind: kNull, line: line}, nil
	}
	return nil, errf(src, line, "", "unexpected token %v", tok)
}

// --- YAML subset ---
//
// The subset: indentation-scoped mappings and "- " lists, scalars
// (null/~, true/false, numbers with optional _ digit separators, bare and
// quoted strings), flow lists [a, b] and flow maps {k: v}, and '#'
// comments. No anchors, tags, multi-documents, or multi-line scalars.

// yline is one preprocessed source line.
type yline struct {
	indent int
	text   string
	num    int
}

type yparser struct {
	src   string
	lines []yline
	pos   int
}

func parseYAMLTree(src string, data []byte) (*value, error) {
	p := &yparser{src: src}
	for i, raw := range strings.Split(string(data), "\n") {
		num := i + 1
		indent := 0
		for indent < len(raw) && raw[indent] == ' ' {
			indent++
		}
		if indent < len(raw) && raw[indent] == '\t' {
			return nil, errf(src, num, "", "tab indentation is not supported (use spaces)")
		}
		text := strings.TrimRight(stripComment(raw[indent:]), " \r")
		if text == "" {
			continue
		}
		p.lines = append(p.lines, yline{indent: indent, text: text, num: num})
	}
	if len(p.lines) == 0 {
		return nil, errf(src, 0, "", "empty document")
	}
	if p.lines[0].indent != 0 {
		return nil, errf(src, p.lines[0].num, "", "top-level content must not be indented")
	}
	v, err := p.parseNode(0)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		return nil, errf(src, p.lines[p.pos].num, "", "unexpected content after document")
	}
	return v, nil
}

// stripComment removes a trailing "#..." comment that is outside quotes.
// A '#' only starts a comment at the beginning of the content or after a
// space, per YAML.
func stripComment(s string) string {
	inS, inD := false, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\'' && !inD:
			inS = !inS
		case c == '"' && !inS:
			inD = !inD
		case c == '#' && !inS && !inD && (i == 0 || s[i-1] == ' '):
			return s[:i]
		}
	}
	return s
}

// parseNode parses the block starting at the current line, whose indent
// defines the block's scope.
func (p *yparser) parseNode(minIndent int) (*value, error) {
	ln := p.lines[p.pos]
	if ln.indent < minIndent {
		return nil, errf(p.src, ln.num, "", "internal: block under-indented")
	}
	if isListItem(ln.text) {
		return p.parseList(ln.indent)
	}
	return p.parseMap(ln.indent)
}

func isListItem(text string) bool {
	return text == "-" || strings.HasPrefix(text, "- ")
}

func (p *yparser) parseMap(indent int) (*value, error) {
	v := &value{kind: kMap, line: p.lines[p.pos].num}
	for p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		if ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, errf(p.src, ln.num, "", "unexpected indentation")
		}
		if isListItem(ln.text) {
			return nil, errf(p.src, ln.num, "", "unexpected list item in mapping")
		}
		key, rest, err := splitKey(ln.text)
		if err != nil {
			return nil, errf(p.src, ln.num, "", "%v", err)
		}
		for _, e := range v.m {
			if e.key == key {
				return nil, errf(p.src, ln.num, "", "duplicate key %q", key)
			}
		}
		p.pos++
		var child *value
		if rest != "" {
			child, err = parseScalar(p.src, rest, ln.num)
			if err != nil {
				return nil, err
			}
		} else if p.pos < len(p.lines) && p.lines[p.pos].indent > indent {
			child, err = p.parseNode(indent + 1)
			if err != nil {
				return nil, err
			}
		} else {
			child = &value{kind: kNull, line: ln.num}
		}
		v.m = append(v.m, entry{key: key, line: ln.num, val: child})
	}
	return v, nil
}

func (p *yparser) parseList(indent int) (*value, error) {
	v := &value{kind: kList, line: p.lines[p.pos].num}
	for p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		if ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, errf(p.src, ln.num, "", "unexpected indentation")
		}
		if !isListItem(ln.text) {
			break
		}
		rest := strings.TrimPrefix(strings.TrimPrefix(ln.text, "-"), " ")
		rest = strings.TrimLeft(rest, " ")
		if rest == "" {
			// "-" alone: the item is the following deeper block.
			p.pos++
			if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
				v.l = append(v.l, &value{kind: kNull, line: ln.num})
				continue
			}
			child, err := p.parseNode(indent + 1)
			if err != nil {
				return nil, err
			}
			v.l = append(v.l, child)
			continue
		}
		if _, _, err := splitKey(rest); err == nil && rest[0] != '[' && rest[0] != '{' {
			// "- key: ..." starts an inline mapping: re-scope this line to
			// the item's column and let parseMap collect the item's
			// remaining keys from the following deeper lines.
			p.lines[p.pos] = yline{indent: indent + 2, text: rest, num: ln.num}
			child, err := p.parseMap(indent + 2)
			if err != nil {
				return nil, err
			}
			v.l = append(v.l, child)
			continue
		}
		p.pos++
		child, err := parseScalar(p.src, rest, ln.num)
		if err != nil {
			return nil, err
		}
		v.l = append(v.l, child)
	}
	return v, nil
}

// splitKey splits "key: rest" (or "key:") at the first top-level colon
// followed by a space or end of line.
func splitKey(text string) (key, rest string, err error) {
	depth := 0
	for i := 0; i < len(text); i++ {
		switch text[i] {
		case '[', '{':
			depth++
		case ']', '}':
			depth--
		case '"', '\'':
			return "", "", fmt.Errorf("quoted keys are not supported")
		case ':':
			if depth > 0 {
				continue
			}
			if i+1 < len(text) && text[i+1] != ' ' {
				return "", "", fmt.Errorf("missing space after ':' in %q", text)
			}
			key = strings.TrimSpace(text[:i])
			if key == "" {
				return "", "", fmt.Errorf("empty key in %q", text)
			}
			return key, strings.TrimSpace(text[i+1:]), nil
		}
	}
	return "", "", fmt.Errorf("expected \"key: value\" in %q", text)
}

// parseScalar parses a scalar or flow collection occupying one line. A
// block-level bare scalar spans the whole line (descriptions may contain
// commas and brackets); only inside flow collections do ,/]/} terminate.
func parseScalar(src, text string, line int) (*value, error) {
	switch text[0] {
	case '[', '{', '"', '\'':
		v, n, err := parseFlow(src, text, line)
		if err != nil {
			return nil, err
		}
		if rest := strings.TrimSpace(text[n:]); rest != "" {
			return nil, errf(src, line, "", "trailing content %q after value", rest)
		}
		return v, nil
	}
	return scalarFromToken(text, line), nil
}

// parseFlow parses one value starting at the beginning of text and returns
// how many bytes it consumed. Flow lists/maps recurse.
func parseFlow(src, text string, line int) (*value, int, error) {
	text0 := text
	switch {
	case strings.HasPrefix(text, "["):
		v := &value{kind: kList, line: line}
		rest := strings.TrimLeft(text[1:], " ")
		for {
			if rest == "" {
				return nil, 0, errf(src, line, "", "unterminated flow list")
			}
			if rest[0] == ']' {
				rest = rest[1:]
				break
			}
			child, n, err := parseFlow(src, rest, line)
			if err != nil {
				return nil, 0, err
			}
			v.l = append(v.l, child)
			rest = strings.TrimLeft(rest[n:], " ")
			if strings.HasPrefix(rest, ",") {
				rest = strings.TrimLeft(rest[1:], " ")
			} else if !strings.HasPrefix(rest, "]") {
				return nil, 0, errf(src, line, "", "expected ',' or ']' in flow list")
			}
		}
		return v, len(text0) - len(rest), nil
	case strings.HasPrefix(text, "{"):
		v := &value{kind: kMap, line: line}
		rest := strings.TrimLeft(text[1:], " ")
		for {
			if rest == "" {
				return nil, 0, errf(src, line, "", "unterminated flow mapping")
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			ci := strings.IndexByte(rest, ':')
			if ci <= 0 {
				return nil, 0, errf(src, line, "", "expected \"key: value\" in flow mapping")
			}
			key := strings.TrimSpace(rest[:ci])
			rest = strings.TrimLeft(rest[ci+1:], " ")
			child, n, err := parseFlow(src, rest, line)
			if err != nil {
				return nil, 0, err
			}
			for _, e := range v.m {
				if e.key == key {
					return nil, 0, errf(src, line, "", "duplicate key %q", key)
				}
			}
			v.m = append(v.m, entry{key: key, line: line, val: child})
			rest = strings.TrimLeft(rest[n:], " ")
			if strings.HasPrefix(rest, ",") {
				rest = strings.TrimLeft(rest[1:], " ")
			} else if !strings.HasPrefix(rest, "}") {
				return nil, 0, errf(src, line, "", "expected ',' or '}' in flow mapping")
			}
		}
		return v, len(text0) - len(rest), nil
	case strings.HasPrefix(text, "\""):
		end := -1
		for i := 1; i < len(text); i++ {
			if text[i] == '\\' {
				i++
				continue
			}
			if text[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return nil, 0, errf(src, line, "", "unterminated string")
		}
		s, err := strconv.Unquote(text[:end+1])
		if err != nil {
			return nil, 0, errf(src, line, "", "bad string %s: %v", text[:end+1], err)
		}
		return &value{kind: kStr, line: line, str: s, raw: text[:end+1]}, end + 1, nil
	case strings.HasPrefix(text, "'"):
		end := strings.IndexByte(text[1:], '\'')
		if end < 0 {
			return nil, 0, errf(src, line, "", "unterminated string")
		}
		return &value{kind: kStr, line: line, str: text[1 : end+1], raw: text[:end+2]}, end + 2, nil
	}
	// Bare scalar: up to a flow delimiter.
	end := len(text)
	for i := 0; i < len(text); i++ {
		if c := text[i]; c == ',' || c == ']' || c == '}' {
			end = i
			break
		}
	}
	tok := strings.TrimSpace(text[:end])
	if tok == "" {
		return nil, 0, errf(src, line, "", "empty value")
	}
	return scalarFromToken(tok, line), end, nil
}

// scalarFromToken interprets a bare scalar token.
func scalarFromToken(tok string, line int) *value {
	switch tok {
	case "null", "~":
		return &value{kind: kNull, line: line, raw: tok}
	case "true":
		return &value{kind: kBool, line: line, b: true, raw: tok}
	case "false":
		return &value{kind: kBool, line: line, b: false, raw: tok}
	}
	if f, ok := parseNumber(tok); ok {
		return &value{kind: kNum, line: line, num: f, raw: tok}
	}
	return &value{kind: kStr, line: line, str: tok, raw: tok}
}

// parseNumber parses a decimal number, allowing '_' separators between
// digits (120_000_000) as in Go literals.
func parseNumber(tok string) (float64, bool) {
	clean := tok
	if strings.ContainsRune(tok, '_') {
		var b strings.Builder
		for i := 0; i < len(tok); i++ {
			if tok[i] == '_' {
				if i == 0 || i == len(tok)-1 || !isDigit(tok[i-1]) || !isDigit(tok[i+1]) {
					return 0, false
				}
				continue
			}
			b.WriteByte(tok[i])
		}
		clean = b.String()
	}
	f, err := strconv.ParseFloat(clean, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
