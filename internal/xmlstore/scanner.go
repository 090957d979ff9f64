package xmlstore

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"unicode/utf8"
)

// scanner is the store's XML lexer: a whole file held in memory, cut into
// tokens by slicing. It reads the subset of XML 1.0 that Save writes and a
// careful hand edit produces — an optional <?xml version="1.0"?> declaration,
// comments, elements with ASCII names, attributes in either quote, character
// data with the five predefined and the numeric entities — and is its own
// well-formedness check: tags must nest and match, one root, nothing but
// comments and white space around it, every character valid UTF-8 and a legal
// XML character. What it does not read it refuses by name (DOCTYPE and other
// <! declarations, CDATA sections, processing instructions, namespace
// prefixes and xmlns, a non-UTF-8 encoding=), so such a file is reported as
// corrupt rather than half understood.
//
// Everything it accepts, encoding/xml's own lexer accepts with the same
// tokens (FuzzLoad holds it to that); the reverse is deliberately not true.
type scanner struct {
	buf     []byte
	pos     int
	open    [][]byte  // names of the elements open at pos, outermost first
	attrs   []rawAttr // attributes of the most recent start token
	scratch []byte    // backing for text and attribute values that needed rewriting
	closing bool      // the last start token was self-closing: its end token comes next
	rooted  bool      // the root element has been opened
	reopen  bool      // Token hands back the open element's start token first
}

// rawAttr is one attribute of a start tag. The slices alias the file or the
// scanner's scratch space and are valid until the next call to next.
type rawAttr struct{ name, value []byte }

type tokenKind uint8

const (
	tokEOF   tokenKind = iota
	tokStart           // data is the element name; attributes are in scanner.attrs
	tokEnd             // data is the element name
	tokText            // data is character data with entities and line ends resolved
)

// token is what next returns, by value: boxing every token into the xml.Token
// interface is most of what reading a large file through encoding/xml costs.
// data aliases the file or the scanner's scratch space and is valid until the
// next call to next.
type token struct {
	kind tokenKind
	data []byte
}

// maxDepth bounds element nesting. The store's formats nest four deep; the
// bound keeps a hostile file from growing the open-element stack without limit.
const maxDepth = 32

// Byte classes. Plain bytes are the ones character data and attribute values
// carry unchanged and that cannot end either: printable ASCII but for the
// markup characters and quotes, plus tab and newline.
const (
	classNameStart = 1 << iota
	className
	classPlain
)

var class = func() (t [256]uint8) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = classPlain
	}
	t['\t'], t['\n'] = classPlain, classPlain
	for _, c := range `<>&"'` {
		t[c] = 0
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c] |= classNameStart | className
		t[c-'a'+'A'] |= classNameStart | className
	}
	t['_'] |= classNameStart | className
	for _, c := range "0123456789-." {
		t[c] |= className
	}
	return t
}()

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }

// isChar reports whether r is a legal XML 1.0 character.
func isChar(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// errorf reports a syntax error at the scanner's position.
func (s *scanner) errorf(format string, args ...any) error {
	line := 1 + bytes.Count(s.buf[:s.pos], []byte{'\n'})
	return fmt.Errorf("xmlstore: line %d: %s", line, fmt.Sprintf(format, args...))
}

// Token implements xml.TokenReader over next, so struct tags stay the one
// schema for every section and file: decode is
// xml.NewTokenDecoder(scanner).Decode.
func (s *scanner) Token() (xml.Token, error) {
	if s.reopen { // encoding/xml decodes an element a direct loop already opened
		s.reopen = false
		return s.startElement(s.open[len(s.open)-1]), nil
	}
	t, err := s.next()
	if err != nil {
		return nil, err
	}
	switch t.kind {
	case tokStart:
		return s.startElement(t.data), nil
	case tokEnd:
		return xml.EndElement{Name: xml.Name{Local: string(t.data)}}, nil
	case tokText:
		return xml.CharData(t.data), nil
	}
	return nil, io.EOF
}

// startElement is the start token named name with the attributes of the
// most recent start tag.
func (s *scanner) startElement(name []byte) xml.StartElement {
	e := xml.StartElement{Name: xml.Name{Local: string(name)}}
	if len(s.attrs) > 0 {
		e.Attr = make([]xml.Attr, len(s.attrs))
		for i, a := range s.attrs {
			e.Attr[i] = xml.Attr{Name: xml.Name{Local: string(a.name)}, Value: string(a.value)}
		}
	}
	return e
}

// next returns the next token. Comments, the XML declaration and white space
// outside the root element produce none; the end of a well-formed document
// is tokEOF, and every later call repeats it.
func (s *scanner) next() (token, error) {
	if s.closing {
		s.closing = false
		return s.pop(), nil
	}
	s.scratch = s.scratch[:0]
	for s.pos < len(s.buf) {
		if s.buf[s.pos] != '<' {
			text, err := s.text(-1)
			if err != nil {
				return token{}, err
			}
			if len(s.open) > 0 {
				return token{tokText, text}, nil
			}
			if len(bytes.TrimLeft(text, " \n\t\r")) > 0 {
				return token{}, s.errorf("character data outside the root element")
			}
			continue
		}
		var after byte // the byte after '<'; 0 at the end of the file names nothing
		if s.pos+1 < len(s.buf) {
			after = s.buf[s.pos+1]
		}
		switch rest := s.buf[s.pos:]; {
		case after == '/':
			return s.endTag()
		case after != '!' && after != '?':
			return s.startTag()
		case bytes.HasPrefix(rest, []byte("<!--")):
			if err := s.comment(); err != nil {
				return token{}, err
			}
		case after == '?':
			if err := s.declaration(); err != nil {
				return token{}, err
			}
		case bytes.HasPrefix(rest, []byte("<![CDATA[")):
			return token{}, s.errorf("CDATA sections are not read")
		default:
			return token{}, s.errorf("DOCTYPE and other <! declarations are not read")
		}
	}
	if len(s.open) > 0 {
		return token{}, s.errorf("unexpected end of file in <%s>", s.open[len(s.open)-1])
	}
	if !s.rooted {
		return token{}, s.errorf("no root element")
	}
	return token{kind: tokEOF}, nil
}

// skip reads past the end tag of the element whose start token was just
// returned.
func (s *scanner) skip() error {
	for depth := len(s.open); len(s.open) >= depth; {
		if _, err := s.next(); err != nil {
			return err
		}
	}
	return nil
}

func (s *scanner) pop() token {
	name := s.open[len(s.open)-1]
	s.open = s.open[:len(s.open)-1]
	return token{tokEnd, name}
}

func (s *scanner) skipSpace() {
	for s.pos < len(s.buf) && isSpace(s.buf[s.pos]) {
		s.pos++
	}
}

// name reads an element or attribute name at pos.
func (s *scanner) name() ([]byte, error) {
	start := s.pos
	if start < len(s.buf) && class[s.buf[start]]&classNameStart != 0 {
		s.pos++
		for s.pos < len(s.buf) && class[s.buf[s.pos]]&className != 0 {
			s.pos++
		}
	}
	switch {
	case s.pos == len(s.buf):
		return nil, s.errorf("unexpected end of file in a tag")
	case s.buf[s.pos] == ':':
		return nil, s.errorf("namespace prefixes are not read")
	case s.buf[s.pos] >= 0x80:
		return nil, s.errorf("non-ASCII names are not read")
	case s.pos == start:
		return nil, s.errorf("expected a name, found %q", s.buf[s.pos])
	}
	return s.buf[start:s.pos], nil
}

// attributes reads white-space-separated name="value" pairs into s.attrs, up
// to the first byte that is neither white space nor the start of a name.
func (s *scanner) attributes() error {
	s.attrs = s.attrs[:0]
	for {
		before := s.pos
		s.skipSpace()
		if s.pos == len(s.buf) || class[s.buf[s.pos]]&classNameStart == 0 {
			return nil
		}
		if s.pos == before {
			return s.errorf("expected white space before an attribute")
		}
		name, err := s.name()
		if err != nil {
			return err
		}
		s.skipSpace()
		if s.pos == len(s.buf) || s.buf[s.pos] != '=' {
			return s.errorf("attribute %s without =", name)
		}
		s.pos++
		s.skipSpace()
		if s.pos == len(s.buf) || s.buf[s.pos] != '"' && s.buf[s.pos] != '\'' {
			return s.errorf("attribute %s without a quoted value", name)
		}
		quote := s.buf[s.pos]
		s.pos++
		value, err := s.text(int(quote))
		if err != nil {
			return err
		}
		s.pos++ // the closing quote
		for _, a := range s.attrs {
			if bytes.Equal(a.name, name) {
				return s.errorf("attribute %s repeated", name)
			}
		}
		if bytes.Equal(name, []byte("xmlns")) {
			return s.errorf("namespaces (xmlns) are not read")
		}
		s.attrs = append(s.attrs, rawAttr{name, value})
	}
}

func (s *scanner) startTag() (token, error) {
	switch {
	case s.rooted && len(s.open) == 0:
		return token{}, s.errorf("a second root element")
	case len(s.open) == maxDepth:
		return token{}, s.errorf("elements nested deeper than %d", maxDepth)
	}
	s.pos++ // <
	name, err := s.name()
	if err != nil {
		return token{}, err
	}
	if err := s.attributes(); err != nil {
		return token{}, err
	}
	switch rest := s.buf[s.pos:]; {
	case bytes.HasPrefix(rest, []byte(">")):
		s.pos++
	case bytes.HasPrefix(rest, []byte("/>")):
		s.pos += 2
		s.closing = true
	default:
		return token{}, s.errorf("malformed start tag <%s", name)
	}
	s.rooted = true
	s.open = append(s.open, name)
	return token{tokStart, name}, nil
}

func (s *scanner) endTag() (token, error) {
	s.pos += 2 // </
	name, err := s.name()
	if err != nil {
		return token{}, err
	}
	s.skipSpace()
	if s.pos == len(s.buf) || s.buf[s.pos] != '>' {
		return token{}, s.errorf("malformed end tag </%s", name)
	}
	if len(s.open) == 0 || !bytes.Equal(s.open[len(s.open)-1], name) {
		return token{}, s.errorf("unexpected end tag </%s>", name)
	}
	s.pos++
	return s.pop(), nil
}

// comment skips the comment at pos. As in encoding/xml, "--" may appear in
// one only as part of the closing "-->".
func (s *scanner) comment() error {
	body := s.buf[s.pos+len("<!--"):]
	end := bytes.Index(body, []byte("--"))
	if end < 0 || !bytes.HasPrefix(body[end:], []byte("-->")) {
		return s.errorf(`comment not closed by the first "--" in it`)
	}
	for b := body[:end]; len(b) > 0; {
		r, size := utf8.DecodeRune(b)
		if r == utf8.RuneError && size == 1 || !isChar(r) {
			return s.errorf("invalid character in a comment")
		}
		b = b[size:]
	}
	s.pos += len("<!--") + end + len("-->")
	return nil
}

// declaration reads the XML declaration, the one processing instruction
// accepted, and only as the file's first bytes: version 1.0 and, when an
// encoding is named, UTF-8.
func (s *scanner) declaration() error {
	rest := s.buf[s.pos:]
	if s.pos != 0 || !bytes.HasPrefix(rest, []byte("<?xml")) || len(rest) == len("<?xml") || !isSpace(rest[len("<?xml")]) {
		return s.errorf("processing instructions other than a leading <?xml ...?> are not read")
	}
	s.pos = len("<?xml")
	if err := s.attributes(); err != nil {
		return err
	}
	// The values are compared as written: encoding/xml does not resolve
	// entities here, so neither may this.
	if !bytes.HasPrefix(s.buf[s.pos:], []byte("?>")) || len(s.attrs) == 0 || len(s.scratch) > 0 {
		return s.errorf("malformed XML declaration")
	}
	for i, a := range s.attrs {
		switch name, value := string(a.name), string(a.value); {
		case i == 0 && name == "version" && value == "1.0":
		case i > 0 && name == "encoding" && bytes.EqualFold(a.value, []byte("utf-8")):
		case i > 0 && name == "standalone" && (value == "yes" || value == "no"):
		default:
			return s.errorf("unsupported XML declaration: %s=%q", name, value)
		}
	}
	s.pos += len("?>")
	return nil
}

// text reads character data up to the next '<' or the end of the file
// (quote < 0), or an attribute value up to its closing quote, and leaves pos
// there. Entities are resolved and \r\n and \r become \n, as XML requires.
// The common case — nothing to rewrite — returns a slice of the file.
func (s *scanner) text(quote int) ([]byte, error) {
	start, i := s.pos, s.pos
	for i < len(s.buf) && class[s.buf[i]]&classPlain != 0 {
		i++
	}
	base := len(s.scratch)
	rewritten := false
	for ; i < len(s.buf); i++ {
		c := s.buf[i]
		switch {
		case class[c]&classPlain != 0:
		case c == '<' && quote < 0, int(c) == quote:
			s.pos = i
			if rewritten {
				return s.scratch[base:], nil
			}
			return s.buf[start:i], nil
		case c == '<':
			s.pos = i
			return nil, s.errorf("unescaped < in an attribute value")
		case c == '"', c == '\'':
		case c == '>':
			if quote < 0 && i-start >= 2 && s.buf[i-1] == ']' && s.buf[i-2] == ']' {
				s.pos = i
				return nil, s.errorf("unescaped ]]> in character data")
			}
		case c == '&', c == '\r':
			if !rewritten {
				rewritten = true
				s.scratch = append(s.scratch, s.buf[start:i]...)
			}
			if c == '\r' {
				s.scratch = append(s.scratch, '\n')
				if i+1 < len(s.buf) && s.buf[i+1] == '\n' {
					i++
				}
				continue
			}
			r, size, ok := entity(s.buf[i:])
			if !ok {
				s.pos = i
				return nil, s.errorf("invalid or undeclared entity")
			}
			s.scratch = utf8.AppendRune(s.scratch, r)
			i += size - 1
			continue
		default:
			r, size := utf8.DecodeRune(s.buf[i:])
			if r == utf8.RuneError && size == 1 || !isChar(r) {
				s.pos = i
				return nil, s.errorf("invalid UTF-8 or illegal character code %#x", c)
			}
			if rewritten {
				s.scratch = append(s.scratch, s.buf[i:i+size]...)
			}
			i += size - 1
			continue
		}
		if rewritten {
			s.scratch = append(s.scratch, c)
		}
	}
	s.pos = i
	if quote >= 0 {
		return nil, s.errorf("unexpected end of file in an attribute value")
	}
	if rewritten {
		return s.scratch[base:], nil
	}
	return s.buf[start:], nil
}

// entity resolves the reference at the start of b ("&...;"): one of the five
// predefined entities or a decimal or hexadecimal character reference to a
// legal XML character. size is the length of the reference.
func entity(b []byte) (r rune, size int, ok bool) {
	for _, e := range [...]struct {
		ref string
		r   rune
	}{{"&lt;", '<'}, {"&gt;", '>'}, {"&amp;", '&'}, {"&apos;", '\''}, {"&quot;", '"'}} {
		if bytes.HasPrefix(b, []byte(e.ref)) {
			return e.r, len(e.ref), true
		}
	}
	if !bytes.HasPrefix(b, []byte("&#")) {
		return 0, 0, false
	}
	i, radix := 2, rune(10)
	if i < len(b) && b[i] == 'x' {
		i, radix = 3, 16
	}
	digits := i
	for ; i < len(b); i++ {
		var d rune
		switch c := b[i]; {
		case c >= '0' && c <= '9':
			d = rune(c - '0')
		case radix == 16 && c >= 'a' && c <= 'f':
			d = rune(c-'a') + 10
		case radix == 16 && c >= 'A' && c <= 'F':
			d = rune(c-'A') + 10
		default:
			return r, i + 1, c == ';' && i > digits && isChar(r)
		}
		if r = r*radix + d; r > utf8.MaxRune {
			return 0, 0, false
		}
	}
	return 0, 0, false
}
