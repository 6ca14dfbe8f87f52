package expert

import "netsmith/internal/layout"

// Specs returns the calibration targets for every baseline whose
// adjacency list is not published, keyed by the paper's Table II metrics
// (20- and 30-router configurations) and, for the 48-router scalability
// study, by extrapolated targets (the paper publishes no Table II row for
// 48 routers; the targets extend the 20->30 trends and are
// approximations).
func Specs() []CalibrationSpec {
	g20, g30, g48 := layout.Grid4x5, layout.Grid6x5, layout.Grid8x6
	return []CalibrationSpec{
		// 20 routers (4x5): published Table II metrics.
		{Name: NameKiteSmall, Grid: g20, Class: layout.Small, Links: 38, Diameter: 4, AvgHops: 2.38, Bisection: 8, Seed: 107},
		{Name: NameKiteMedium, Grid: g20, Class: layout.Medium, Links: 40, Diameter: 4, AvgHops: 2.25, Bisection: 8, Seed: 12},
		{Name: NameKiteLarge, Grid: g20, Class: layout.Large, Links: 36, Diameter: 5, AvgHops: 2.27, Bisection: 8, Seed: 13},
		{Name: NameButterDonut, Grid: g20, Class: layout.Large, Links: 36, Diameter: 4, AvgHops: 2.32, Bisection: 8, Seed: 14},
		{Name: NameDoubleButterfly, Grid: g20, Class: layout.Large, Links: 32, Diameter: 4, AvgHops: 2.59, Bisection: 8, Seed: 103},
		{Name: NameLPBTPower, Grid: g20, Class: layout.Small, Links: 33, Diameter: 5, AvgHops: 2.59, Bisection: 4, Seed: 16},
		{Name: NameLPBTHopsSmall, Grid: g20, Class: layout.Small, Links: 34, Diameter: 6, AvgHops: 2.74, Bisection: 4, Seed: 17},
		{Name: NameLPBTHopsMedium, Grid: g20, Class: layout.Medium, Links: 38, Diameter: 4, AvgHops: 2.33, Bisection: 7, Seed: 18},

		// 30 routers (6x5): published Table II metrics.
		{Name: NameKiteSmall, Grid: g30, Class: layout.Small, Links: 58, Diameter: 5, AvgHops: 2.91, Bisection: 10, Seed: 21},
		{Name: NameKiteMedium, Grid: g30, Class: layout.Medium, Links: 60, Diameter: 5, AvgHops: 2.66, Bisection: 10, Seed: 22},
		{Name: NameKiteLarge, Grid: g30, Class: layout.Large, Links: 56, Diameter: 5, AvgHops: 2.69, Bisection: 10, Seed: 23},
		{Name: NameButterDonut, Grid: g30, Class: layout.Large, Links: 44, Diameter: 10, AvgHops: 3.71, Bisection: 8, Seed: 24},
		{Name: NameDoubleButterfly, Grid: g30, Class: layout.Large, Links: 48, Diameter: 5, AvgHops: 2.90, Bisection: 8, Seed: 25},

		// 48 routers (8x6): extrapolated targets for the Fig. 11 study.
		// Kite-Large and LPBT do not scale to 48 per the paper.
		{Name: NameKiteSmall, Grid: g48, Class: layout.Small, Links: 92, Diameter: 7, AvgHops: 3.55, Bisection: 12, Seed: 31},
		{Name: NameKiteMedium, Grid: g48, Class: layout.Medium, Links: 96, Diameter: 6, AvgHops: 3.25, Bisection: 13, Seed: 32},
		{Name: NameButterDonut, Grid: g48, Class: layout.Large, Links: 70, Diameter: 8, AvgHops: 4.20, Bisection: 10, Seed: 33},
		{Name: NameDoubleButterfly, Grid: g48, Class: layout.Large, Links: 77, Diameter: 6, AvgHops: 3.60, Bisection: 10, Seed: 34},
	}
}
