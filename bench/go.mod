module overprov/bench

go 1.22

require overprov v0.0.0

replace overprov => ../
