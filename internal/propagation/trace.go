package propagation

import (
	"math"
	"math/cmplx"

	"press/internal/geom"
	"press/internal/obs/prof"
	"press/internal/rfphys"
)

// TracePaths generates the multipath set between tx and rx at wavelength
// lambdaM using the image method: the direct path (unless fully blocked),
// specular wall reflections up to env.MaxOrder bounces, and one path per
// point scatterer. PRESS element paths are not included here — elements
// are controlled, not ambient; internal/element adds them via
// BistaticPath.
func TracePaths(env *Environment, tx, rx Node, lambdaM float64) []Path {
	sp := env.sc.Start(prof.PhaseTrace)
	var paths []Path
	attempts := 1 // the direct-path candidate

	if p, ok := directPath(env, tx, rx, lambdaM); ok {
		paths = append(paths, p)
	}
	if env.MaxOrder >= 1 {
		ps, n := wallPaths(env, tx, rx, lambdaM, nil)
		paths = append(paths, ps...)
		attempts += n
	}
	if env.MaxOrder >= 2 {
		for _, w1 := range geom.Walls() {
			ps, n := wallPaths(env, tx, rx, lambdaM, []geom.Wall{w1})
			paths = append(paths, ps...)
			attempts += n
		}
	}
	if env.MaxOrder >= 3 {
		for _, w1 := range geom.Walls() {
			for _, w2 := range geom.Walls() {
				if w2 == w1 {
					continue
				}
				ps, n := wallPaths(env, tx, rx, lambdaM, []geom.Wall{w1, w2})
				paths = append(paths, ps...)
				attempts += n
			}
		}
	}
	attempts += len(env.Scatterers)
	for _, s := range env.Scatterers {
		if p, ok := scatterPath(env, tx, rx, s, lambdaM); ok {
			paths = append(paths, p)
		}
	}
	reg := env.sc.Registry()
	reg.Counter("propagation_traces_total").Inc()
	reg.Counter("propagation_paths_traced_total").Add(int64(len(paths)))
	sp.Add(prof.AuxImages, int64(attempts))
	sp.Add(prof.AuxPathsKept, int64(len(paths)))
	sp.Add(prof.AuxPathsCulled, int64(attempts-len(paths)))
	sp.End()
	return paths
}

// directPath builds the line-of-sight path, attenuated by any blockers it
// crosses. Paths ending below -180 dB are dropped as numerically
// irrelevant.
func directPath(env *Environment, tx, rx Node, lambdaM float64) (Path, bool) {
	d := rx.Pos.Dist(tx.Pos)
	if d == 0 {
		return Path{}, false
	}
	dir := rx.Pos.Sub(tx.Pos).Unit()
	amp := rfphys.FriisAmplitude(d, lambdaM) *
		tx.pattern().Gain(dir) *
		rx.pattern().Gain(dir.Scale(-1))
	lossDB := geom.SegmentLossDB(env.Blockers, tx.Pos, rx.Pos)
	amp *= rfphys.DBToAmplitude(-lossDB)
	if tooWeak(amp) {
		return Path{}, false
	}
	return Path{
		Gain:      complex(amp, 0),
		Delay:     d / rfphys.SpeedOfLight,
		AoD:       dir,
		AoA:       dir,
		DopplerHz: doppler(tx, rx, dir, dir, lambdaM),
		Kind:      KindDirect,
	}, true
}

// wallPaths builds the specular reflection path that bounces off the wall
// sequence prefix followed by one final wall each (i.e. with prefix nil it
// returns all single-bounce paths; with a one-wall prefix all double
// bounces starting there). Consecutive repeats of the same wall are
// geometrically impossible and skipped. The second return is how many
// image candidates were enumerated, for work accounting.
func wallPaths(env *Environment, tx, rx Node, lambdaM float64, prefix []geom.Wall) ([]Path, int) {
	var out []Path
	attempts := 0
	for _, last := range geom.Walls() {
		if len(prefix) > 0 && prefix[len(prefix)-1] == last {
			continue
		}
		attempts++
		seq := append(append([]geom.Wall(nil), prefix...), last)
		if p, ok := imagePath(env, tx, rx, lambdaM, seq); ok {
			out = append(out, p)
		}
	}
	return out, attempts
}

// imagePath constructs the specular path bouncing off the given wall
// sequence, using nested mirror images and unfolding to recover the
// bounce points. The boolean is false when the specular geometry does not
// exist (a bounce point falls outside its wall) or the path is too weak.
func imagePath(env *Environment, tx, rx Node, lambdaM float64, seq []geom.Wall) (Path, bool) {
	room := env.Room
	// Images of the transmitter: img[k] is tx mirrored across seq[0..k].
	imgs := make([]geom.Vec, len(seq))
	cur := tx.Pos
	for i, w := range seq {
		cur = room.Mirror(cur, w)
		imgs[i] = cur
	}
	totalLen := imgs[len(imgs)-1].Dist(rx.Pos)
	if totalLen == 0 {
		return Path{}, false
	}

	// Unfold bounce points back-to-front: the last bounce is the
	// intersection of (lastImage→rx) with the last wall; earlier bounces
	// intersect (earlierImage→nextBounce).
	bounces := make([]geom.Vec, len(seq))
	target := rx.Pos
	for i := len(seq) - 1; i >= 0; i-- {
		// The image seen from `target` through wall seq[i] is imgs[i].
		b, ok := reflectionOnWall(room, imgs[i], target, seq[i])
		if !ok {
			return Path{}, false
		}
		bounces[i] = b
		target = b
	}

	// Assemble the physical polyline tx → bounces... → rx.
	points := make([]geom.Vec, 0, len(seq)+2)
	points = append(points, tx.Pos)
	points = append(points, bounces...)
	points = append(points, rx.Pos)

	amp := rfphys.FriisAmplitude(totalLen, lambdaM)
	gain := complex(amp, 0)

	// Blocker loss per physical segment.
	var blockDB float64
	for i := 0; i+1 < len(points); i++ {
		blockDB += geom.SegmentLossDB(env.Blockers, points[i], points[i+1])
	}
	gain *= complex(rfphys.DBToAmplitude(-blockDB), 0)

	// Reflection coefficient per bounce, with the angle of incidence
	// measured from the wall normal.
	for i, w := range seq {
		inc := bounces[i].Sub(points[i]).Unit()
		n := room.Normal(w)
		theta := math.Acos(clamp(math.Abs(inc.Dot(n)), 0, 1))
		refl := rfphys.FresnelReflection(env.material(w).EpsR, theta)
		refl *= rfphys.DBToAmplitude(-env.material(w).ExtraLossDB)
		gain *= complex(refl, 0)
	}

	aod := points[1].Sub(points[0]).Unit()
	aoa := points[len(points)-1].Sub(points[len(points)-2]).Unit()
	gain *= complex(tx.pattern().Gain(aod)*rx.pattern().Gain(aoa.Scale(-1)), 0)

	if tooWeak(cmplx.Abs(gain)) {
		return Path{}, false
	}
	return Path{
		Gain:      gain,
		Delay:     totalLen / rfphys.SpeedOfLight,
		AoD:       aod,
		AoA:       aoa,
		DopplerHz: doppler(tx, rx, aod, aoa, lambdaM),
		Kind:      KindWall,
		Hops:      len(seq),
	}, true
}

// reflectionOnWall is geom.Room.ReflectionPoint generalized to an image
// point that may lie outside the room: it intersects the segment
// image→target with the wall plane and validates the bounce rectangle.
func reflectionOnWall(room geom.Room, image, target geom.Vec, w geom.Wall) (geom.Vec, bool) {
	d := target.Sub(image)
	var t float64
	switch w {
	case geom.WallXMin:
		if d.X == 0 {
			return geom.Vec{}, false
		}
		t = -image.X / d.X
	case geom.WallXMax:
		if d.X == 0 {
			return geom.Vec{}, false
		}
		t = (room.Size.X - image.X) / d.X
	case geom.WallYMin:
		if d.Y == 0 {
			return geom.Vec{}, false
		}
		t = -image.Y / d.Y
	case geom.WallYMax:
		if d.Y == 0 {
			return geom.Vec{}, false
		}
		t = (room.Size.Y - image.Y) / d.Y
	case geom.WallZMin:
		if d.Z == 0 {
			return geom.Vec{}, false
		}
		t = -image.Z / d.Z
	default: // WallZMax
		if d.Z == 0 {
			return geom.Vec{}, false
		}
		t = (room.Size.Z - image.Z) / d.Z
	}
	if t <= 0 || t >= 1 {
		return geom.Vec{}, false
	}
	p := image.Add(d.Scale(t))
	const slack = 1e-9
	ok := p.X >= -slack && p.X <= room.Size.X+slack &&
		p.Y >= -slack && p.Y <= room.Size.Y+slack &&
		p.Z >= -slack && p.Z <= room.Size.Z+slack
	return p, ok
}

// scatterPath builds the TX→scatterer→RX path.
func scatterPath(env *Environment, tx, rx Node, s Scatterer, lambdaM float64) (Path, bool) {
	d1 := s.Pos.Dist(tx.Pos)
	d2 := rx.Pos.Dist(s.Pos)
	if d1 == 0 || d2 == 0 {
		return Path{}, false
	}
	aod := s.Pos.Sub(tx.Pos).Unit()
	aoa := rx.Pos.Sub(s.Pos).Unit()

	amp := rfphys.FriisAmplitude(d1, lambdaM) * rfphys.FriisAmplitude(d2, lambdaM)
	amp *= tx.pattern().Gain(aod) * rx.pattern().Gain(aoa.Scale(-1))
	lossDB := geom.SegmentLossDB(env.Blockers, tx.Pos, s.Pos) +
		geom.SegmentLossDB(env.Blockers, s.Pos, rx.Pos)
	gain := complex(amp*rfphys.DBToAmplitude(-lossDB), 0) * s.Gain
	if tooWeak(cmplx.Abs(gain)) {
		return Path{}, false
	}
	// A moving scatterer changes the bistatic path length at rate
	// v·(âod − âoa); the resulting Doppler adds to the endpoint terms.
	scatDoppler := s.Velocity.Dot(aoa.Sub(aod)) / lambdaM
	return Path{
		Gain:      gain,
		Delay:     (d1 + d2) / rfphys.SpeedOfLight,
		AoD:       aod,
		AoA:       aoa,
		DopplerHz: doppler(tx, rx, aod, aoa, lambdaM) + scatDoppler,
		Kind:      KindScatter,
		Hops:      1,
	}, true
}

// BistaticPath builds the controlled path TX→via→RX that a PRESS element
// at `via` contributes: Friis spreading on both segments, the via-point
// antenna pattern applied at incidence and departure, blocker losses, and
// the element's complex reflection gain and extra internal delay
// (switched waveguide stub). The boolean is false when the path is too
// weak to matter (e.g. the element is terminated: reflect == 0).
func BistaticPath(env *Environment, tx, rx Node, via geom.Vec, viaPattern rfphys.Pattern,
	reflect complex128, extraDelayS float64, lambdaM float64) (Path, bool) {

	if reflect == 0 {
		return Path{}, false
	}
	d1 := via.Dist(tx.Pos)
	d2 := rx.Pos.Dist(via)
	if d1 == 0 || d2 == 0 {
		return Path{}, false
	}
	if viaPattern == nil {
		viaPattern = rfphys.Isotropic{}
	}
	aod := via.Sub(tx.Pos).Unit()
	aoa := rx.Pos.Sub(via).Unit()

	amp := rfphys.FriisAmplitude(d1, lambdaM) * rfphys.FriisAmplitude(d2, lambdaM)
	amp *= tx.pattern().Gain(aod) * rx.pattern().Gain(aoa.Scale(-1))
	// The element's antenna gain applies on reception and on re-radiation.
	amp *= viaPattern.Gain(aod.Scale(-1)) * viaPattern.Gain(aoa)
	lossDB := geom.SegmentLossDB(env.Blockers, tx.Pos, via) +
		geom.SegmentLossDB(env.Blockers, via, rx.Pos)

	gain := complex(amp*rfphys.DBToAmplitude(-lossDB), 0) * reflect
	if tooWeak(cmplx.Abs(gain)) {
		return Path{}, false
	}
	env.sc.Registry().Counter("propagation_element_paths_total").Inc()
	return Path{
		Gain:      gain,
		Delay:     (d1+d2)/rfphys.SpeedOfLight + extraDelayS,
		AoD:       aod,
		AoA:       aoa,
		DopplerHz: doppler(tx, rx, aod, aoa, lambdaM),
		Kind:      KindElement,
		Hops:      1,
	}, true
}

// doppler returns the per-path Doppler shift from the endpoint
// velocities: the transmitter moving along the departure direction and
// the receiver moving against the arrival direction both raise the
// observed frequency.
func doppler(tx, rx Node, aod, aoa geom.Vec, lambdaM float64) float64 {
	return (tx.Velocity.Dot(aod) - rx.Velocity.Dot(aoa)) / lambdaM
}

// tooWeak reports whether a path amplitude is below the -180 dB floor
// where it cannot influence any measurable quantity.
func tooWeak(amp float64) bool { return amp < 1e-9 }

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
