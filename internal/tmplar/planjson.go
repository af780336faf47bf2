package tmplar

import (
	"encoding/json"
	"math"
	"strconv"
)

// MarshalJSON implements json.Marshaler with AppendJSON, so a job view
// carrying a PlanResponse emits the bytes /api/plan sends.
func (resp PlanResponse) MarshalJSON() ([]byte, error) {
	return resp.AppendJSON(nil)
}

// AppendJSON appends resp's JSON encoding to b: byte for byte what
// encoding/json writes for the struct, without json.Encoder's trailing
// newline. Like encoding/json, it fails on a NaN or infinite float; the
// error names the first one in field order.
func (resp *PlanResponse) AppendJSON(b []byte) ([]byte, error) {
	var err error
	b = append(b, `{"found":`...)
	b = strconv.AppendBool(b, resp.Found)
	b = append(b, `,"found_by":`...)
	b = strconv.AppendInt(b, int64(resp.FoundBy), 10)
	b = append(b, `,"steps":`...)
	b = strconv.AppendInt(b, int64(resp.Steps), 10)
	b = append(b, `,"t_total":`...)
	b = appendFloat(b, resp.TTotal, &err)
	b = append(b, `,"f_total":`...)
	b = appendFloat(b, resp.FTotal, &err)
	b = append(b, `,"collisions":`...)
	b = strconv.AppendInt(b, int64(resp.Collisions), 10)
	b = append(b, `,"routes":`...)
	if resp.Routes == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range resp.Routes {
			if i > 0 {
				b = append(b, ',')
			}
			b = resp.Routes[i].appendJSON(b, &err)
		}
		b = append(b, ']')
	}
	return append(b, '}'), err
}

func (r *AssetRoute) appendJSON(b []byte, err *error) []byte {
	b = append(b, `{"asset":`...)
	b = strconv.AppendInt(b, int64(r.Asset), 10)
	b = append(b, `,"legs":`...)
	if r.Legs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Legs {
			if i > 0 {
				b = append(b, ',')
			}
			l := &r.Legs[i]
			b = append(b, `{"from":`...)
			b = strconv.AppendInt(b, int64(l.From), 10)
			b = append(b, `,"to":`...)
			b = strconv.AppendInt(b, int64(l.To), 10)
			b = append(b, `,"speed":`...)
			b = strconv.AppendInt(b, int64(l.Speed), 10)
			b = append(b, `,"time":`...)
			b = appendFloat(b, l.Time, err)
			b = append(b, `,"fuel":`...)
			b = appendFloat(b, l.Fuel, err)
			if l.Wait {
				b = append(b, `,"wait":true`...)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"time":`...)
	b = appendFloat(b, r.Time, err)
	b = append(b, `,"fuel":`...)
	b = appendFloat(b, r.Fuel, err)
	return append(b, '}')
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in 'f' form for 1e-6 <= |f| < 1e21 and for
// zeros, otherwise in 'e' form with a two-digit negative exponent cut to
// one digit (e-07 becomes e-7). A NaN or infinity appends nothing and sets
// *err, unless an earlier float already did.
func appendFloat(b []byte, f float64, err *error) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if *err == nil {
			*err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return b
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
