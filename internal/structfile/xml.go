package structfile

import (
	"encoding/xml"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// The XML structure format follows hpcstruct's document shape:
//
//	<HPCToolkitStructure n="prog">
//	  <LM n="toy.exe">
//	    <F n="file2.c">
//	      <P n="h" l="7" v="0x400010-0x400020">
//	        <L l="8" v="...">
//	          <S l="9" v="..."/>
//	          <A n="compare" f="seq.h" l="20" cl="12"> ... </A>
//	        </L>
//	      </P>
//	    </F>
//	  </LM>
//	</HPCToolkitStructure>
//
// Attribute key: n = name, f = file, l = line, cl = inlined call line,
// v = address ranges, ns = no-source flag.

var kindElem = map[Kind]string{
	KindLM:    "LM",
	KindFile:  "F",
	KindProc:  "P",
	KindLoop:  "L",
	KindAlien: "A",
	KindStmt:  "S",
}

var elemKind = map[string]Kind{
	"LM": KindLM,
	"F":  KindFile,
	"P":  KindProc,
	"L":  KindLoop,
	"A":  KindAlien,
	"S":  KindStmt,
}

const rootElem = "HPCToolkitStructure"

// WriteXML serializes the document.
func (d *Doc) WriteXML(w io.Writer) error {
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	root := xml.StartElement{
		Name: xml.Name{Local: rootElem},
		Attr: []xml.Attr{{Name: xml.Name{Local: "n"}, Value: d.Program}},
	}
	if d.Fingerprint != 0 {
		root.Attr = append(root.Attr, xml.Attr{
			Name: xml.Name{Local: "fp"}, Value: strconv.FormatUint(d.Fingerprint, 16),
		})
	}
	if err := enc.EncodeToken(root); err != nil {
		return err
	}
	for _, lm := range d.Root.Children {
		if err := encodeScope(enc, lm); err != nil {
			return err
		}
	}
	if err := enc.EncodeToken(root.End()); err != nil {
		return err
	}
	return enc.Flush()
}

func encodeScope(enc *xml.Encoder, s *Scope) error {
	name, ok := kindElem[s.Kind]
	if !ok {
		return fmt.Errorf("structfile: cannot serialize scope kind %v", s.Kind)
	}
	start := xml.StartElement{Name: xml.Name{Local: name}}
	attr := func(k, v string) {
		start.Attr = append(start.Attr, xml.Attr{Name: xml.Name{Local: k}, Value: v})
	}
	if s.Name != "" {
		attr("n", s.Name)
	}
	if s.File != "" && (s.Kind == KindAlien || s.Kind == KindLoop || s.Kind == KindStmt) {
		attr("f", s.File)
	}
	if s.Line != 0 {
		attr("l", strconv.Itoa(s.Line))
	}
	if s.CallLine != 0 {
		attr("cl", strconv.Itoa(s.CallLine))
	}
	if s.NoSource {
		attr("ns", "1")
	}
	if len(s.Ranges) > 0 {
		attr("v", formatRanges(s.Ranges))
	}
	if err := enc.EncodeToken(start); err != nil {
		return err
	}
	for _, c := range s.Children {
		if err := encodeScope(enc, c); err != nil {
			return err
		}
	}
	return enc.EncodeToken(start.End())
}

func formatRanges(rs []Range) string {
	var b strings.Builder
	for i, r := range rs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "0x%x-0x%x", r.Lo, r.Hi)
	}
	return b.String()
}

func parseRanges(s string) ([]Range, error) {
	if s == "" {
		return nil, nil
	}
	var out []Range
	for _, part := range strings.Fields(s) {
		dash := strings.IndexByte(part, '-')
		if dash < 0 {
			return nil, fmt.Errorf("structfile: bad range %q", part)
		}
		lo, err := strconv.ParseUint(strings.TrimPrefix(part[:dash], "0x"), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("structfile: bad range %q: %v", part, err)
		}
		hi, err := strconv.ParseUint(strings.TrimPrefix(part[dash+1:], "0x"), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("structfile: bad range %q: %v", part, err)
		}
		if hi < lo {
			return nil, fmt.Errorf("structfile: inverted range %q", part)
		}
		out = append(out, Range{Lo: lo, Hi: hi})
	}
	return out, nil
}

// ReadXML parses a structure document.
func ReadXML(r io.Reader) (*Doc, error) {
	dec := xml.NewDecoder(r)
	var doc *Doc
	var stack []*Scope
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("structfile: %w", err)
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			if tok.Name.Local == rootElem {
				if doc != nil {
					return nil, fmt.Errorf("structfile: multiple document roots")
				}
				doc = &Doc{Root: &Scope{Kind: KindRoot}}
				for _, a := range tok.Attr {
					switch a.Name.Local {
					case "n":
						doc.Program = a.Value
						doc.Root.Name = a.Value
					case "fp":
						fp, err := strconv.ParseUint(a.Value, 16, 64)
						if err != nil {
							return nil, fmt.Errorf("structfile: bad fingerprint %q", a.Value)
						}
						doc.Fingerprint = fp
					}
				}
				stack = append(stack, doc.Root)
				continue
			}
			kind, ok := elemKind[tok.Name.Local]
			if !ok {
				return nil, fmt.Errorf("structfile: unknown element <%s>", tok.Name.Local)
			}
			if len(stack) == 0 {
				return nil, fmt.Errorf("structfile: <%s> outside document root", tok.Name.Local)
			}
			if kind == KindStmt && !slices.ContainsFunc(stack, func(s *Scope) bool { return s.Kind == KindProc }) {
				// A statement's samples are attributed to its procedure's
				// frame; without one there is nothing to attribute them to.
				line, col := dec.InputPos()
				return nil, fmt.Errorf("structfile: %d:%d: <S> outside any <P>", line, col)
			}
			s := &Scope{Kind: kind, Parent: stack[len(stack)-1]}
			for _, a := range tok.Attr {
				switch a.Name.Local {
				case "n":
					s.Name = a.Value
				case "f":
					s.File = a.Value
				case "l":
					n, err := strconv.Atoi(a.Value)
					if err != nil {
						return nil, fmt.Errorf("structfile: bad line %q", a.Value)
					}
					s.Line = n
				case "cl":
					n, err := strconv.Atoi(a.Value)
					if err != nil {
						return nil, fmt.Errorf("structfile: bad call line %q", a.Value)
					}
					s.CallLine = n
				case "ns":
					s.NoSource = a.Value == "1"
				case "v":
					rs, err := parseRanges(a.Value)
					if err != nil {
						return nil, err
					}
					s.Ranges = rs
				}
			}
			s.Parent.Children = append(s.Parent.Children, s)
			stack = append(stack, s)
		case xml.EndElement:
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		}
	}
	if doc == nil {
		return nil, fmt.Errorf("structfile: no %s element found", rootElem)
	}
	// File scopes inherit their name into descendants that omitted the f
	// attribute (Proc scopes store File but don't serialize it).
	var fix func(s *Scope, file string)
	fix = func(s *Scope, file string) {
		switch s.Kind {
		case KindFile:
			file = s.Name
		case KindProc, KindLoop, KindAlien, KindStmt:
			if s.File == "" && !s.NoSource {
				s.File = file
			}
			if s.Kind == KindAlien || s.Kind == KindLoop {
				file = s.File
			}
		}
		for _, c := range s.Children {
			fix(c, file)
		}
	}
	fix(doc.Root, "")
	return doc, nil
}
