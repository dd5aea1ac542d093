//! One module per table/figure of the paper's evaluation section.

pub mod ablation;
pub mod analytic;
pub mod fig2;
pub mod fig6;
pub mod figs345;
pub mod model;
pub mod stability;
pub mod table1;
pub mod table23;
pub mod table4;
pub mod table5;
pub mod table6;
