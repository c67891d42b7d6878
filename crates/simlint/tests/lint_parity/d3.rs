//! D3: float equality against non-zero literals and narrowing casts.

pub fn literal(x: f64) -> bool {
    x == 1.5 //~ float_cmp
}

pub fn sentinels(x: f64) -> bool {
    x == 0.0 || x != f64::INFINITY
}

pub fn narrow(x: f64) -> f64 {
    f64::from(x as f32) //~ disallowed_types
}
