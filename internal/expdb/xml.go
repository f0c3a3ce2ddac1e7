package expdb

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"

	"repro/internal/core"
	"repro/internal/intern"
	"repro/internal/metric"
)

// XML database format:
//
//	<Experiment n="prog" ranks="8">
//	  <MetricTable>
//	    <Metric n="CYCLES" u="cycles" kind="raw" period="1000"/>
//	    <Metric n="fpwaste" kind="derived" formula="$0*4 - $1"/>
//	    <Metric n="CYCLES (mean)" kind="summary" op="mean" src="0"/>
//	  </MetricTable>
//	  <CCT>
//	    <N k="frame" n="main" f="a.c" l="1" id="4194304" mod="x.exe">
//	      <V c="0" v="1000"/>          <!-- base value -->
//	      <SV c="2" v="42.5"/>         <!-- summary inclusive value -->
//	      <N .../>
//	    </N>
//	  </CCT>
//	</Experiment>

var kindAttr = map[core.Kind]string{
	core.KindFrame:    "frame",
	core.KindLoop:     "loop",
	core.KindAlien:    "alien",
	core.KindStmt:     "stmt",
	core.KindLM:       "lm",
	core.KindFile:     "file",
	core.KindProc:     "proc",
	core.KindCallSite: "callsite",
}

var attrKind = func() map[string]core.Kind {
	m := map[string]core.Kind{}
	for k, v := range kindAttr {
		m[v] = k
	}
	return m
}()

// WriteXML serializes the experiment.
func (e *Experiment) WriteXML(w io.Writer) error {
	enc := xml.NewEncoder(w)
	enc.Indent("", " ")
	root := xml.StartElement{Name: xml.Name{Local: "Experiment"}, Attr: []xml.Attr{
		{Name: xml.Name{Local: "n"}, Value: e.Program},
		{Name: xml.Name{Local: "ranks"}, Value: strconv.Itoa(e.NRanks)},
	}}
	if err := enc.EncodeToken(root); err != nil {
		return err
	}

	mt := xml.StartElement{Name: xml.Name{Local: "MetricTable"}}
	if err := enc.EncodeToken(mt); err != nil {
		return err
	}
	for _, d := range descsOf(e.Tree.Reg) {
		el := xml.StartElement{Name: xml.Name{Local: "Metric"}}
		add := func(k, v string) {
			if v != "" {
				el.Attr = append(el.Attr, xml.Attr{Name: xml.Name{Local: k}, Value: v})
			}
		}
		add("n", d.Name)
		add("u", d.Unit)
		add("kind", d.Kind)
		if d.Period > 0 {
			add("period", strconv.FormatUint(d.Period, 10))
		}
		add("formula", d.Formula)
		add("op", d.Op)
		if d.Kind == "summary" {
			add("src", strconv.Itoa(d.Source))
		}
		if err := enc.EncodeToken(el); err != nil {
			return err
		}
		if err := enc.EncodeToken(el.End()); err != nil {
			return err
		}
	}
	if err := enc.EncodeToken(mt.End()); err != nil {
		return err
	}

	cct := xml.StartElement{Name: xml.Name{Local: "CCT"}}
	if err := enc.EncodeToken(cct); err != nil {
		return err
	}
	inclOv, exclOv := overrideCols(e.Tree.Reg)
	// Root overrides live directly under CCT: the root has no N element.
	for _, cv := range overrideValues(&e.Tree.Root.Incl, inclOv) {
		if err := encodeValue(enc, "SV", cv.col, cv.val); err != nil {
			return err
		}
	}
	for _, cv := range overrideValues(&e.Tree.Root.Excl, exclOv) {
		if err := encodeValue(enc, "EV", cv.col, cv.val); err != nil {
			return err
		}
	}
	for _, c := range e.Tree.Root.Children {
		if err := encodeNode(enc, c, inclOv, exclOv); err != nil {
			return err
		}
	}
	if err := enc.EncodeToken(cct.End()); err != nil {
		return err
	}
	if err := enc.EncodeToken(root.End()); err != nil {
		return err
	}
	return enc.Flush()
}

func encodeNode(enc *xml.Encoder, n *core.Node, inclOv, exclOv []int) error {
	el := xml.StartElement{Name: xml.Name{Local: "N"}}
	add := func(k, v string) {
		if v != "" {
			el.Attr = append(el.Attr, xml.Attr{Name: xml.Name{Local: k}, Value: v})
		}
	}
	kn, ok := kindAttr[n.Kind]
	if !ok {
		return fmt.Errorf("expdb: cannot serialize node kind %v", n.Kind)
	}
	add("k", kn)
	add("n", n.Name.String())
	add("f", n.File.String())
	if n.Line != 0 {
		add("l", strconv.Itoa(n.Line))
	}
	if n.ID != 0 {
		add("id", strconv.FormatUint(n.ID, 10))
	}
	if n.CallLine != 0 {
		add("cl", strconv.Itoa(n.CallLine))
	}
	add("cf", n.CallFile.String())
	add("mod", n.Mod.String())
	if n.NoSource {
		add("ns", "1")
	}
	if err := enc.EncodeToken(el); err != nil {
		return err
	}

	var verr error
	n.Base.Range(func(id int, v float64) {
		if verr == nil {
			verr = encodeValue(enc, "V", id, v)
		}
	})
	if verr != nil {
		return verr
	}
	for _, cv := range overrideValues(&n.Incl, inclOv) {
		if err := encodeValue(enc, "SV", cv.col, cv.val); err != nil {
			return err
		}
	}
	for _, cv := range overrideValues(&n.Excl, exclOv) {
		if err := encodeValue(enc, "EV", cv.col, cv.val); err != nil {
			return err
		}
	}
	for _, c := range n.Children {
		if err := encodeNode(enc, c, inclOv, exclOv); err != nil {
			return err
		}
	}
	return enc.EncodeToken(el.End())
}

func encodeValue(enc *xml.Encoder, elem string, col int, v float64) error {
	el := xml.StartElement{Name: xml.Name{Local: elem}, Attr: []xml.Attr{
		{Name: xml.Name{Local: "c"}, Value: strconv.Itoa(col)},
		{Name: xml.Name{Local: "v"}, Value: strconv.FormatFloat(v, 'g', -1, 64)},
	}}
	if err := enc.EncodeToken(el); err != nil {
		return err
	}
	return enc.EncodeToken(el.End())
}

// ReadXML deserializes an experiment and recomputes presented metrics.
func ReadXML(r io.Reader) (*Experiment, error) {
	dec := xml.NewDecoder(r)
	var (
		e         *Experiment
		descs     []metricDesc
		reg       *metric.Registry
		stack     []*core.Node
		inMetrics bool
		inCCT     bool
	)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("expdb: %w", err)
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			switch tok.Name.Local {
			case "Experiment":
				e = &Experiment{NRanks: 1}
				for _, a := range tok.Attr {
					switch a.Name.Local {
					case "n":
						e.Program = a.Value
					case "ranks":
						n, err := strconv.Atoi(a.Value)
						if err != nil {
							return nil, fmt.Errorf("expdb: bad ranks %q", a.Value)
						}
						e.NRanks = n
					}
				}
			case "MetricTable":
				inMetrics = true
			case "Metric":
				if !inMetrics {
					return nil, fmt.Errorf("expdb: Metric outside MetricTable")
				}
				var d metricDesc
				for _, a := range tok.Attr {
					switch a.Name.Local {
					case "n":
						d.Name = a.Value
					case "u":
						d.Unit = a.Value
					case "kind":
						d.Kind = a.Value
					case "period":
						p, err := strconv.ParseUint(a.Value, 10, 64)
						if err != nil {
							return nil, fmt.Errorf("expdb: bad period %q", a.Value)
						}
						d.Period = p
					case "formula":
						d.Formula = a.Value
					case "op":
						d.Op = a.Value
					case "src":
						s, err := strconv.Atoi(a.Value)
						if err != nil {
							return nil, fmt.Errorf("expdb: bad src %q", a.Value)
						}
						d.Source = s
					}
				}
				descs = append(descs, d)
			case "CCT":
				if e == nil {
					return nil, fmt.Errorf("expdb: CCT before Experiment")
				}
				reg, err = rebuildRegistry(descs)
				if err != nil {
					return nil, err
				}
				e.Tree = core.NewTree(e.Program, reg)
				stack = []*core.Node{e.Tree.Root}
				inCCT = true
			case "N":
				if !inCCT || len(stack) == 0 {
					return nil, fmt.Errorf("expdb: N outside CCT")
				}
				n, err := decodeNodeStart(tok, stack[len(stack)-1])
				if err != nil {
					return nil, err
				}
				stack = append(stack, n)
			case "V", "SV", "EV":
				if !inCCT || len(stack) == 0 {
					return nil, fmt.Errorf("expdb: value outside node")
				}
				n := stack[len(stack)-1]
				col, v, err := decodeValue(tok, reg)
				if err != nil {
					return nil, err
				}
				switch tok.Name.Local {
				case "V":
					n.Base.Add(col, v)
				case "SV":
					n.Incl.Set(col, v)
				case "EV":
					n.Excl.Set(col, v)
				}
			}
		case xml.EndElement:
			switch tok.Name.Local {
			case "MetricTable":
				inMetrics = false
			case "CCT":
				inCCT = false
			case "N":
				if len(stack) > 1 {
					stack = stack[:len(stack)-1]
				}
			}
		}
	}
	if e == nil || e.Tree == nil {
		return nil, fmt.Errorf("expdb: not an experiment database")
	}
	// Scopes were appended as they came: the binary readers' sibling rule
	// decides whether they form a tree.
	var seen sibTable
	var dup error
	core.Walk(e.Tree.Root, func(n *core.Node) bool {
		if dup == nil {
			dup = seen.unique(n.Children)
		}
		return dup == nil
	})
	if dup != nil {
		return nil, dup
	}
	e.Tree.ComputeMetrics()
	return e, nil
}

func decodeNodeStart(tok xml.StartElement, parent *core.Node) (*core.Node, error) {
	var key core.Key
	var noSource bool
	var callLine int
	var callFile, mod intern.Sym
	for _, a := range tok.Attr {
		switch a.Name.Local {
		case "k":
			k, ok := attrKind[a.Value]
			if !ok {
				return nil, fmt.Errorf("expdb: unknown node kind %q", a.Value)
			}
			key.Kind = k
		case "n":
			key.Name = intern.S(a.Value)
		case "f":
			key.File = intern.S(a.Value)
		case "l":
			n, err := strconv.Atoi(a.Value)
			if err != nil {
				return nil, fmt.Errorf("expdb: bad line %q", a.Value)
			}
			key.Line = n
		case "id":
			id, err := strconv.ParseUint(a.Value, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("expdb: bad id %q", a.Value)
			}
			key.ID = id
		case "cl":
			n, err := strconv.Atoi(a.Value)
			if err != nil {
				return nil, fmt.Errorf("expdb: bad call line %q", a.Value)
			}
			callLine = n
		case "cf":
			callFile = intern.S(a.Value)
		case "mod":
			mod = intern.S(a.Value)
		case "ns":
			noSource = a.Value == "1"
		}
	}
	if key.Kind == core.KindRoot {
		return nil, fmt.Errorf("expdb: node without kind")
	}
	n := parent.AppendChild(key)
	n.NoSource = noSource
	n.CallLine = callLine
	n.CallFile = callFile
	n.Mod = mod
	return n, nil
}

var xmlPlane = map[string]int{"V": planeBase, "SV": planeIncl, "EV": planeExcl}

// decodeValue reads a V (Base), SV or EV (override) element's column and
// value; the column must be one valueCol accepts. reg is the registry of
// the CCT the element is in.
func decodeValue(tok xml.StartElement, reg *metric.Registry) (int, float64, error) {
	col := -1
	var v float64
	var haveV bool
	for _, a := range tok.Attr {
		switch a.Name.Local {
		case "c":
			c, err := strconv.Atoi(a.Value)
			if err != nil {
				return 0, 0, fmt.Errorf("expdb: bad column %q", a.Value)
			}
			col = c
		case "v":
			f, err := strconv.ParseFloat(a.Value, 64)
			if err != nil {
				return 0, 0, fmt.Errorf("expdb: bad value %q", a.Value)
			}
			v = f
			haveV = true
		}
	}
	if col < 0 || !haveV {
		return 0, 0, fmt.Errorf("expdb: incomplete value element")
	}
	col, err := valueCol(reg, uint64(col), xmlPlane[tok.Name.Local])
	return col, v, err
}
