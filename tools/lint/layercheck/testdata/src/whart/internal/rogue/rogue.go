// An internal package that never declared its layer.
package rogue

import (
	_ "wirelesshart/internal/stats" // want `package wirelesshart/internal/rogue is not registered in the layercheck DAG`
)
