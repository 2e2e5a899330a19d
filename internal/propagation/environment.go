package propagation

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"

	"press/internal/geom"
	"press/internal/obs/scope"
	"press/internal/rfphys"
)

// Material describes a wall surface for the ray tracer.
type Material struct {
	// EpsR is the relative permittivity driving the Fresnel reflection
	// coefficient. Drywall ≈ 2.5, brick ≈ 4, concrete ≈ 6.
	EpsR float64
	// ExtraLossDB is additional per-bounce scattering loss in dB
	// (roughness, furniture clutter absorbing specular energy).
	ExtraLossDB float64
}

// Drywall is the default interior-wall material.
var Drywall = Material{EpsR: 2.5, ExtraLossDB: 1}

// Concrete suits floors and ceilings.
var Concrete = Material{EpsR: 6, ExtraLossDB: 2}

// Scatterer is a point scatterer (furniture edge, metal fixture, a
// person) that contributes one extra path TX→scatterer→RX.
type Scatterer struct {
	Pos geom.Vec
	// Gain is the dimensionless complex re-scattering amplitude; its
	// magnitude plays the role of √(σ/4π) relative to the Friis segment
	// product, its phase models the scattering phase.
	Gain complex128
	// Velocity makes the scatterer move (metres/second) — a person
	// walking through the room. Even with static endpoints, a moving
	// scatterer Doppler-shifts its path and decorrelates the channel,
	// which is the §2 scenario: "the environment itself" changes.
	Velocity geom.Vec
}

// Node is a radio endpoint (or one antenna of a MIMO endpoint): a
// position, an antenna pattern, and an optional velocity for Doppler.
type Node struct {
	Pos      geom.Vec
	Pattern  rfphys.Pattern
	Velocity geom.Vec // metres/second; zero for a static endpoint
}

// pattern returns the node's antenna pattern, defaulting to isotropic so
// the zero Node is usable in tests.
func (n Node) pattern() rfphys.Pattern {
	if n.Pattern == nil {
		return rfphys.Isotropic{}
	}
	return n.Pattern
}

// Environment is a room with materials, obstacles, and ambient
// scatterers: everything about the radio environment that PRESS does
// *not* control.
type Environment struct {
	Room       geom.Room
	Walls      map[geom.Wall]Material
	Blockers   []geom.Blocker
	Scatterers []Scatterer
	// MaxOrder is the deepest wall-reflection order traced (0 = direct
	// only, 1 = single bounces, 2 adds double bounces). Deeper orders add
	// little power but quadratic path counts; 2 reproduces indoor
	// frequency selectivity well.
	MaxOrder int

	sc *scope.Scope
}

// AttachScope points the environment's telemetry at a session scope:
// trace counters on its registry and tracing work on its path_trace
// phase. A nil scope detaches; tracing then costs one pointer check.
func (e *Environment) AttachScope(sc *scope.Scope) { e.sc = sc }

// NewEnvironment returns an environment for a room of the given size with
// drywall walls, a concrete floor and ceiling, and second-order tracing.
func NewEnvironment(x, y, z float64) *Environment {
	walls := map[geom.Wall]Material{
		geom.WallXMin: Drywall,
		geom.WallXMax: Drywall,
		geom.WallYMin: Drywall,
		geom.WallYMax: Drywall,
		geom.WallZMin: Concrete,
		geom.WallZMax: Concrete,
	}
	return &Environment{Room: geom.NewRoom(x, y, z), Walls: walls, MaxOrder: 2}
}

// material returns the wall's material, defaulting to Drywall.
func (e *Environment) material(w geom.Wall) Material {
	if m, ok := e.Walls[w]; ok {
		return m
	}
	return Drywall
}

// AddScatterers sprinkles n random scatterers uniformly through the room
// using rng, with re-scattering amplitudes drawn from amp·Rayleigh and
// uniform phases. It reproduces the "different scattering environment"
// the paper gets from moving equipment between placements.
func (e *Environment) AddScatterers(rng *rand.Rand, n int, amp float64) {
	for i := 0; i < n; i++ {
		pos := geom.V(
			rng.Float64()*e.Room.Size.X,
			rng.Float64()*e.Room.Size.Y,
			rng.Float64()*e.Room.Size.Z,
		)
		// Rayleigh magnitude with mean ≈ amp, uniform phase.
		mag := amp * math.Sqrt(-2*math.Log(1-rng.Float64()+1e-12)) / math.Sqrt(math.Pi/2)
		ph := 2 * math.Pi * rng.Float64()
		e.Scatterers = append(e.Scatterers, Scatterer{
			Pos:  pos,
			Gain: cmplx.Rect(mag, ph),
		})
	}
}

// Validate checks that the environment is self-consistent (sane order,
// positive room, scatterers inside the room).
func (e *Environment) Validate() error {
	if e.MaxOrder < 0 || e.MaxOrder > 3 {
		return fmt.Errorf("propagation: MaxOrder %d outside [0,3]", e.MaxOrder)
	}
	for i, s := range e.Scatterers {
		if !e.Room.Contains(s.Pos) {
			return fmt.Errorf("propagation: scatterer %d at %v outside room", i, s.Pos)
		}
	}
	return nil
}
