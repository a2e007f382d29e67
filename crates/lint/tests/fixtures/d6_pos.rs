//! D6 positive: an ambient `std::env::var` read in library code, outside
//! the sanctioned `env_cfg` layer.

fn knob() -> usize {
    std::env::var("SAGE_FIXTURE_KNOB")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

fn mid() -> usize {
    knob() * 2
}

pub fn api() -> usize {
    mid() + 1
}
