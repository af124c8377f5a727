package server

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// The HTTP listener is a curl-able JSON projection of the binary
// protocol. It shares every code path that matters — writes go through
// s.applyOps, so an HTTP POST coalesces into the same shared batches
// as binary connections. Rows are plain JSON arrays coerced against
// the table schema (ints as numbers, bytes as base64, timestamps as
// epoch seconds), so no client library is needed.

// HTTPHandler returns the JSON API handler:
//
//	GET  /v1/stats                          server + WAL counters
//	POST /v1/checkpoint                     force a checkpoint
//	POST /v1/tables                         {"name","fields":[{"name","kind","size"}]}
//	POST /v1/tables/{table}/indexes         {"name","fields":["f",...],"unique"}
//	POST /v1/tables/{table}/apply           {"ops":[{"op":"insert","row":[...]},
//	                                                 {"op":"update","rid":N,"row":[...]},
//	                                                 {"op":"delete","rid":N}]}
//	GET  /v1/tables/{table}/rows            ?index=&limit=&reverse=&project=a,b
func (s *Server) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("POST /v1/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		if err := s.eng.Checkpoint(); err != nil {
			httpErr(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("POST /v1/tables", s.httpCreateTable)
	mux.HandleFunc("POST /v1/tables/{table}/indexes", s.httpCreateIndex)
	mux.HandleFunc("POST /v1/tables/{table}/apply", s.httpApply)
	mux.HandleFunc("GET /v1/tables/{table}/rows", s.httpRows)
	return mux
}

// ServeHTTP serves the JSON API on l until Shutdown. Register it on
// its own port beside the binary listener.
func (s *Server) ServeHTTP(l net.Listener) error {
	hs := &http.Server{Handler: s.HTTPHandler()}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return errors.New("server: already shut down")
	}
	s.httpSrvs = append(s.httpSrvs, hs)
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()
	if err := hs.Serve(l); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

func (s *Server) httpCreateTable(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name   string `json:"name"`
		Fields []struct {
			Name string `json:"name"`
			Kind string `json:"kind"`
			Size int    `json:"size"`
		} `json:"fields"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	fields := make([]tuple.Field, 0, len(req.Fields))
	for _, f := range req.Fields {
		k, err := kindFromName(f.Kind)
		if err != nil {
			httpErr(w, http.StatusBadRequest, err)
			return
		}
		fields = append(fields, tuple.Field{Name: f.Name, Kind: k, Size: f.Size})
	}
	schema, err := tuple.NewSchema(fields...)
	if err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	if _, err := s.eng.CreateTable(req.Name, schema); err != nil {
		httpErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"table": req.Name})
}

func (s *Server) httpCreateIndex(w http.ResponseWriter, r *http.Request) {
	tb, err := s.eng.Table(r.PathValue("table"))
	if err != nil {
		httpErr(w, http.StatusNotFound, err)
		return
	}
	var req struct {
		Name   string   `json:"name"`
		Fields []string `json:"fields"`
		Unique bool     `json:"unique"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	var opts []core.IndexOption
	if !req.Unique {
		opts = append(opts, core.NonUnique())
	}
	if _, err := tb.CreateIndex(req.Name, req.Fields, opts...); err != nil {
		httpErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"index": req.Name})
}

func (s *Server) httpApply(w http.ResponseWriter, r *http.Request) {
	table := r.PathValue("table")
	tb, err := s.eng.Table(table)
	if err != nil {
		httpErr(w, http.StatusNotFound, err)
		return
	}
	schema := tb.Schema()
	var req struct {
		Ops []struct {
			Op  string          `json:"op"`
			RID uint64          `json:"rid"`
			Row json.RawMessage `json:"row"`
		} `json:"ops"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	ops := make([]wire.Op, 0, len(req.Ops))
	for i, o := range req.Ops {
		var op wire.Op
		op.RID = o.RID
		switch o.Op {
		case "insert":
			op.Kind = wire.OpInsert
		case "update":
			op.Kind = wire.OpUpdate
		case "delete":
			op.Kind = wire.OpDelete
		default:
			httpErr(w, http.StatusBadRequest, fmt.Errorf("op %d: unknown op %q", i, o.Op))
			return
		}
		if op.Kind != wire.OpDelete {
			row, err := rowFromJSON(schema, o.Row)
			if err != nil {
				httpErr(w, http.StatusBadRequest, fmt.Errorf("op %d: %w", i, err))
				return
			}
			op.Row = row
		}
		ops = append(ops, op)
	}
	// The HTTP listener keeps the simple form — a fresh response per
	// request, no pooled context: it exists for curl, not for throughput.
	var resp wire.ApplyResp
	if err := s.applyOps(table, ops, &resp); err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	errs := resp.OpErrs
	if len(errs) == 0 { // every op applied: the JSON still lists one "" per op
		errs = make([]string, len(ops))
	}
	out := struct {
		Applied int      `json:"applied"`
		RIDs    []uint64 `json:"rids"`
		Errors  []string `json:"errors"`
	}{resp.Applied, resp.RIDs, errs}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) httpRows(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	req := wire.QueryReq{
		Table:   r.PathValue("table"),
		Index:   q.Get("index"),
		Reverse: q.Get("reverse") == "true",
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.ParseUint(v, 10, 63)
		if err != nil {
			httpErr(w, http.StatusBadRequest, fmt.Errorf("bad limit: %w", err))
			return
		}
		req.Limit = n
	}
	if v := q.Get("project"); v != "" {
		req.Projection = strings.Split(v, ",")
	}
	tb, err := s.eng.Table(req.Table)
	if err != nil {
		httpErr(w, http.StatusNotFound, err)
		return
	}
	cur, err := s.openCursor(&req, nil, nil)
	if err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	defer cur.Close()
	schema := tb.Schema()
	if len(req.Projection) > 0 {
		if schema, err = schema.Project(req.Projection...); err != nil {
			httpErr(w, http.StatusBadRequest, err)
			return
		}
	}
	rows := make([][]any, 0, 64)
	for cur.Next() {
		rows = append(rows, rowToJSON(cur.Row()))
	}
	if err := cur.Err(); err != nil {
		httpErr(w, http.StatusInternalServerError, err)
		return
	}
	fields := make([]string, schema.NumFields())
	for i := range fields {
		fields[i] = schema.Field(i).Name
	}
	writeJSON(w, http.StatusOK, map[string]any{"fields": fields, "rows": rows})
}

// --- JSON <-> tuple coercion ---

func kindFromName(name string) (tuple.Kind, error) {
	switch strings.ToLower(name) {
	case "int64", "bigint":
		return tuple.KindInt64, nil
	case "int32", "int":
		return tuple.KindInt32, nil
	case "int16", "smallint":
		return tuple.KindInt16, nil
	case "int8", "tinyint":
		return tuple.KindInt8, nil
	case "bool":
		return tuple.KindBool, nil
	case "float64", "double":
		return tuple.KindFloat64, nil
	case "char":
		return tuple.KindChar, nil
	case "string", "varchar":
		return tuple.KindString, nil
	case "bytes", "varbinary":
		return tuple.KindBytes, nil
	case "timestamp":
		return tuple.KindTimestamp, nil
	}
	return tuple.KindInvalid, fmt.Errorf("server: unknown kind %q", name)
}

// rowFromJSON decodes one row from either JSON shape: an array of
// values in schema order, or an object keyed by field name (every
// field required — the engine has no column defaults).
func rowFromJSON(schema *tuple.Schema, raw json.RawMessage) (tuple.Row, error) {
	var vals []any
	if err := json.Unmarshal(raw, &vals); err != nil {
		var byName map[string]any
		if merr := json.Unmarshal(raw, &byName); merr != nil {
			return nil, err
		}
		vals = make([]any, schema.NumFields())
		for i := range vals {
			name := schema.Field(i).Name
			v, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("row object missing field %q", name)
			}
			vals[i] = v
			delete(byName, name)
		}
		for name := range byName {
			return nil, fmt.Errorf("row object has unknown field %q", name)
		}
	}
	return rowFromVals(schema, vals)
}

func rowFromVals(schema *tuple.Schema, vals []any) (tuple.Row, error) {
	if len(vals) != schema.NumFields() {
		return nil, fmt.Errorf("row has %d values, schema has %d fields", len(vals), schema.NumFields())
	}
	row := make(tuple.Row, len(vals))
	for i, v := range vals {
		f := schema.Field(i)
		val, err := valueFromJSON(f.Kind, v)
		if err != nil {
			return nil, fmt.Errorf("field %q: %w", f.Name, err)
		}
		row[i] = val
	}
	return row, nil
}

func valueFromJSON(k tuple.Kind, v any) (tuple.Value, error) {
	if v == nil {
		return tuple.Null(k), nil
	}
	switch k {
	case tuple.KindInt64, tuple.KindInt32, tuple.KindInt16, tuple.KindInt8, tuple.KindTimestamp:
		f, ok := v.(float64)
		if !ok || f != math.Trunc(f) {
			return tuple.Value{}, fmt.Errorf("want integer, got %T %v", v, v)
		}
		return tuple.Value{Kind: k, Int: int64(f)}, nil
	case tuple.KindBool:
		b, ok := v.(bool)
		if !ok {
			return tuple.Value{}, fmt.Errorf("want bool, got %T", v)
		}
		return tuple.Bool(b), nil
	case tuple.KindFloat64:
		f, ok := v.(float64)
		if !ok {
			return tuple.Value{}, fmt.Errorf("want number, got %T", v)
		}
		return tuple.Float64(f), nil
	case tuple.KindChar, tuple.KindString:
		s, ok := v.(string)
		if !ok {
			return tuple.Value{}, fmt.Errorf("want string, got %T", v)
		}
		return tuple.Value{Kind: k, Str: s}, nil
	case tuple.KindBytes:
		s, ok := v.(string)
		if !ok {
			return tuple.Value{}, fmt.Errorf("want base64 string, got %T", v)
		}
		raw, err := base64.StdEncoding.DecodeString(s)
		if err != nil {
			return tuple.Value{}, err
		}
		return tuple.Bytes(raw), nil
	}
	return tuple.Value{}, fmt.Errorf("unsupported kind %v", k)
}

func rowToJSON(row tuple.Row) []any {
	out := make([]any, len(row))
	for i, v := range row {
		if v.Null {
			continue
		}
		switch v.Kind {
		case tuple.KindFloat64:
			out[i] = v.Float
		case tuple.KindBool:
			out[i] = v.Int != 0
		case tuple.KindChar, tuple.KindString:
			out[i] = v.Str
		case tuple.KindBytes:
			out[i] = base64.StdEncoding.EncodeToString(v.Raw)
		default:
			out[i] = v.Int
		}
	}
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
